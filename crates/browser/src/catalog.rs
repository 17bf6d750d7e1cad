//! The 18-page Alexa catalog (Table III).
//!
//! The paper uses "the 18 most visited web pages reported on Alexa top 500
//! websites that load completely on an Android smartphone" and classifies
//! them by load time when running alone: **Low** intensity (< 2 s) and
//! **High** intensity (> 2 s). Fourteen of the eighteen are used for model
//! training (the *Webpage-Inclusive* set); the remaining four are held out
//! (*Webpage-Neutral*, Section IV-B).
//!
//! Feature vectors here are synthetic but chosen so the engine's computed
//! alone-load-times reproduce the paper's class split — asserted by an
//! integration test, not assumed.

use crate::page::PageFeatures;

/// Table III load-time class of a page when running alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageClass {
    /// Loads in under 2 seconds alone.
    Low,
    /// Takes over 2 seconds alone.
    High,
}

impl std::fmt::Display for PageClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PageClass::Low => "low",
            PageClass::High => "high",
        })
    }
}

/// A named page profile in the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogPage {
    /// Site name as the paper spells it.
    pub name: &'static str,
    /// The Table I feature vector.
    pub features: PageFeatures,
    /// The paper's Table III load-time class.
    pub class: PageClass,
    /// Whether the page belongs to the 14-page training (Webpage-Inclusive)
    /// set or the 4-page held-out (Webpage-Neutral) set.
    pub training: bool,
    /// How memory-bound the page's rendering is relative to the engine's
    /// nominal profile (1.0). Image-heavy pages (Imgur) and long link
    /// directories (Hao123) stress the L2 and DRAM harder per
    /// instruction, making them interference-sensitive; script-heavy
    /// pages (ESPN) are compute-bound and shrug interference off — the
    /// per-page spread Fig. 2(a) measures.
    pub memory_weight: f64,
}

/// The ordered collection of catalog pages.
///
/// # Example
///
/// ```
/// use dora_browser::catalog::{Catalog, PageClass};
///
/// let c = Catalog::alexa18();
/// assert_eq!(c.len(), 18);
/// assert_eq!(c.pages_in_class(PageClass::Low).count(), 12);
/// assert_eq!(c.pages_in_class(PageClass::High).count(), 6);
/// assert_eq!(c.training_pages().count(), 14);
/// assert_eq!(c.heldout_pages().count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    pages: Vec<CatalogPage>,
}

/// Shorthand used by the static table below.
#[expect(
    clippy::expect_used,
    reason = "catalog literals are structurally valid by inspection"
)]
fn page(
    name: &'static str,
    class: PageClass,
    training: bool,
    f: (u32, u32, u32, u32, u32),
    memory_weight: f64,
) -> CatalogPage {
    CatalogPage {
        name,
        features: PageFeatures::new(f.0, f.1, f.2, f.3, f.4)
            .expect("catalog features are structurally valid"),
        class,
        training,
        memory_weight,
    }
}

impl Catalog {
    /// The paper's 18 pages. Low-class pages (12) load in < 2 s alone at
    /// the top frequency; High-class pages (6) take longer. The four
    /// held-out Webpage-Neutral pages span both classes so the test set
    /// exercises the models across the complexity range.
    pub fn alexa18() -> Self {
        use PageClass::{High, Low};
        // (dom_nodes, class_attrs, href_attrs, a_tags, div_tags)
        let pages = vec![
            page("Alipay", Low, true, (900, 540, 150, 180, 230), 0.90),
            page("Twitter", Low, true, (1100, 700, 220, 260, 300), 1.00),
            page("360", Low, true, (1200, 660, 380, 420, 310), 0.95),
            page("Amazon", Low, true, (1400, 900, 320, 360, 420), 0.95),
            page("Instagram", Low, true, (1300, 850, 180, 210, 380), 1.15),
            page("Alibaba", Low, false, (1500, 950, 400, 450, 430), 1.05),
            page("eBay", Low, true, (1600, 1000, 420, 470, 460), 1.00),
            page("Youtube", Low, true, (1700, 1150, 350, 400, 520), 1.10),
            page("BBC", Low, false, (1900, 1200, 480, 530, 560), 1.00),
            page("Reddit", Low, true, (2100, 1300, 620, 680, 590), 1.10),
            page("MSN", Low, true, (2300, 1500, 700, 760, 640), 1.00),
            page("CNN", Low, true, (2500, 1650, 750, 820, 700), 1.05),
            page("Firefox", High, true, (5800, 3700, 1500, 1650, 1750), 0.95),
            page("Imgur", High, false, (4400, 2850, 950, 1050, 1350), 1.12),
            page("ESPN", High, true, (4700, 3100, 1250, 1350, 1450), 0.70),
            page("Hao123", High, true, (4400, 2700, 2000, 2100, 1250), 1.15),
            page("IMDB", High, true, (4800, 3150, 1350, 1500, 1450), 0.90),
            page(
                "Aliexpress",
                High,
                false,
                (5600, 3650, 1600, 1750, 1700),
                1.05,
            ),
        ];
        Catalog { pages }
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// All pages in catalog order.
    pub fn pages(&self) -> &[CatalogPage] {
        &self.pages
    }

    /// Looks a page up by (case-insensitive) name.
    pub fn page(&self, name: &str) -> Option<&CatalogPage> {
        self.pages
            .iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// Pages of a Table III class.
    pub fn pages_in_class(&self, class: PageClass) -> impl Iterator<Item = &CatalogPage> {
        self.pages.iter().filter(move |p| p.class == class)
    }

    /// The 14 Webpage-Inclusive (training) pages.
    pub fn training_pages(&self) -> impl Iterator<Item = &CatalogPage> {
        self.pages.iter().filter(|p| p.training)
    }

    /// The 4 Webpage-Neutral (held-out) pages.
    pub fn heldout_pages(&self) -> impl Iterator<Item = &CatalogPage> {
        self.pages.iter().filter(|p| !p.training)
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::alexa18()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_pages_present() {
        let c = Catalog::alexa18();
        for name in [
            "Amazon",
            "Twitter",
            "Youtube",
            "360",
            "MSN",
            "BBC",
            "CNN",
            "Reddit",
            "Alibaba",
            "eBay",
            "Alipay",
            "Instagram",
            "IMDB",
            "ESPN",
            "Hao123",
            "Imgur",
            "Aliexpress",
            "Firefox",
        ] {
            assert!(c.page(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn class_membership_matches_table3() {
        let c = Catalog::alexa18();
        for name in ["Amazon", "Reddit", "MSN", "Alipay"] {
            assert_eq!(c.page(name).expect("present").class, PageClass::Low);
        }
        for name in ["IMDB", "ESPN", "Hao123", "Imgur", "Aliexpress", "Firefox"] {
            assert_eq!(c.page(name).expect("present").class, PageClass::High);
        }
    }

    #[test]
    fn split_is_14_training_4_heldout() {
        let c = Catalog::alexa18();
        assert_eq!(c.training_pages().count(), 14);
        assert_eq!(c.heldout_pages().count(), 4);
        // Held-out pages span both classes.
        assert!(c.heldout_pages().any(|p| p.class == PageClass::Low));
        assert!(c.heldout_pages().any(|p| p.class == PageClass::High));
    }

    #[test]
    fn high_class_pages_are_more_complex() {
        let c = Catalog::alexa18();
        let max_low = c
            .pages_in_class(PageClass::Low)
            .map(|p| p.features.complexity_score())
            .fold(0.0, f64::max);
        let min_high = c
            .pages_in_class(PageClass::High)
            .map(|p| p.features.complexity_score())
            .fold(f64::INFINITY, f64::min);
        assert!(min_high > max_low);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let c = Catalog::alexa18();
        assert_eq!(c.page("reddit").expect("found").name, "Reddit");
        assert!(c.page("NotASite").is_none());
    }
}
