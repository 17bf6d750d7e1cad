//! Web-page complexity features.
//!
//! The five static features of Table I (X1–X5). They are known before a
//! page renders — "these properties of web pages are available before a
//! page is rendered" (Section II-A) — which is what lets DORA predict load
//! time ahead of the load.

use dora_sim_core::Rng;

/// The static complexity descriptor of a web page (Table I, X1–X5).
///
/// # Example
///
/// ```
/// use dora_browser::PageFeatures;
///
/// let page = PageFeatures::new(2100, 1300, 620, 680, 590).expect("plausible");
/// assert_eq!(page.dom_nodes(), 2100);
/// assert!(page.complexity_score() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageFeatures {
    dom_nodes: u32,
    class_attrs: u32,
    href_attrs: u32,
    a_tags: u32,
    div_tags: u32,
}

/// Error produced when a feature vector is structurally impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidPageError(String);

impl std::fmt::Display for InvalidPageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid page features: {}", self.0)
    }
}

impl std::error::Error for InvalidPageError {}

impl PageFeatures {
    /// Builds a feature vector, checking structural plausibility: a page
    /// must have at least one DOM node, and tags are nodes so neither
    /// `a_tags` nor `div_tags` may exceed `dom_nodes`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPageError`] when the counts cannot describe a real
    /// HTML document.
    pub fn new(
        dom_nodes: u32,
        class_attrs: u32,
        href_attrs: u32,
        a_tags: u32,
        div_tags: u32,
    ) -> Result<Self, InvalidPageError> {
        if dom_nodes == 0 {
            return Err(InvalidPageError("a page has at least one DOM node".into()));
        }
        if a_tags > dom_nodes {
            return Err(InvalidPageError(format!(
                "{a_tags} <a> tags cannot exceed {dom_nodes} DOM nodes"
            )));
        }
        if div_tags > dom_nodes {
            return Err(InvalidPageError(format!(
                "{div_tags} <div> tags cannot exceed {dom_nodes} DOM nodes"
            )));
        }
        if a_tags as u64 + div_tags as u64 > dom_nodes as u64 {
            return Err(InvalidPageError(
                "a and div tags together cannot exceed the node count".into(),
            ));
        }
        Ok(PageFeatures {
            dom_nodes,
            class_attrs,
            href_attrs,
            a_tags,
            div_tags,
        })
    }

    /// X1 — number of DOM tree nodes.
    pub fn dom_nodes(&self) -> u32 {
        self.dom_nodes
    }

    /// X2 — number of `class` attributes.
    pub fn class_attrs(&self) -> u32 {
        self.class_attrs
    }

    /// X3 — number of `href` attributes.
    pub fn href_attrs(&self) -> u32 {
        self.href_attrs
    }

    /// X4 — number of `<a>` tags.
    pub fn a_tags(&self) -> u32 {
        self.a_tags
    }

    /// X5 — number of `<div>` tags.
    pub fn div_tags(&self) -> u32 {
        self.div_tags
    }

    /// The feature vector as `f64`s in Table I order (X1..X5), ready to
    /// feed a regression model.
    pub fn as_vector(&self) -> [f64; 5] {
        [
            self.dom_nodes as f64,
            self.class_attrs as f64,
            self.href_attrs as f64,
            self.a_tags as f64,
            self.div_tags as f64,
        ]
    }

    /// A scalar complexity summary (weighted feature sum). Only used for
    /// ordering pages in reports; the models always use the full vector.
    pub fn complexity_score(&self) -> f64 {
        let [n, c, h, a, d] = self.as_vector();
        n + 0.6 * c + 0.15 * h + 0.2 * a + 0.8 * d
    }

    /// Synthesizes a plausible random page whose overall scale is set by
    /// `complexity` in `[0, 1]` (0 ≈ the simplest catalog page, 1 ≈ the
    /// heaviest). Feature ratios mimic the published measurements of real
    /// pages: roughly 60 % of nodes carry a class, a quarter are links.
    ///
    /// # Panics
    ///
    /// Panics if `complexity` is outside `[0, 1]`.
    #[expect(
        clippy::expect_used,
        reason = "synthesized fractions cap below validity bounds"
    )]
    pub fn synthesize(rng: &mut Rng, complexity: f64) -> PageFeatures {
        assert!(
            (0.0..=1.0).contains(&complexity),
            "complexity {complexity} outside [0,1]"
        );
        let nodes = 700.0 + complexity * 5800.0;
        let nodes = (nodes * rng.jitter(0.10)).round().max(50.0) as u32;
        let frac = |rng: &mut Rng, center: f64, spread: f64| -> f64 {
            (center * rng.jitter(spread)).clamp(0.01, 0.45)
        };
        let class_attrs = ((nodes as f64) * frac(rng, 0.62, 0.15).min(2.0)).round() as u32;
        let a_tags = ((nodes as f64) * frac(rng, 0.22, 0.25)).round() as u32;
        let href_attrs = ((a_tags as f64) * rng.jitter(0.1) * 0.95).round() as u32;
        let div_tags = ((nodes as f64) * frac(rng, 0.28, 0.2)).round() as u32;
        // The fractions above cap at 0.45 each, so a+div <= 0.9·nodes.
        PageFeatures::new(nodes, class_attrs, href_attrs, a_tags, div_tags)
            .expect("synthesized pages are structurally valid by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_page_roundtrips() {
        let p = PageFeatures::new(1000, 600, 200, 220, 280).expect("valid");
        assert_eq!(p.dom_nodes(), 1000);
        assert_eq!(p.class_attrs(), 600);
        assert_eq!(p.href_attrs(), 200);
        assert_eq!(p.a_tags(), 220);
        assert_eq!(p.div_tags(), 280);
        assert_eq!(p.as_vector(), [1000.0, 600.0, 200.0, 220.0, 280.0]);
    }

    #[test]
    fn structural_violations_rejected() {
        assert!(PageFeatures::new(0, 0, 0, 0, 0).is_err());
        assert!(PageFeatures::new(100, 0, 0, 150, 0).is_err());
        assert!(PageFeatures::new(100, 0, 0, 0, 150).is_err());
        assert!(PageFeatures::new(100, 0, 0, 60, 60).is_err());
    }

    #[test]
    fn complexity_score_orders_by_scale() {
        let small = PageFeatures::new(800, 500, 150, 180, 220).expect("valid");
        let large = PageFeatures::new(5200, 3400, 1500, 1650, 1600).expect("valid");
        assert!(large.complexity_score() > small.complexity_score());
    }

    #[test]
    fn synthesize_is_valid_and_scales() {
        let mut rng = Rng::seed_from_u64(3);
        let mut last_mean = 0.0;
        for complexity in [0.0, 0.5, 1.0] {
            let mean: f64 = (0..50)
                .map(|_| PageFeatures::synthesize(&mut rng, complexity).dom_nodes() as f64)
                .sum::<f64>()
                / 50.0;
            assert!(mean > last_mean, "node count should scale with complexity");
            last_mean = mean;
        }
    }

    #[test]
    fn synthesize_is_deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(99);
        let mut b = Rng::seed_from_u64(99);
        for _ in 0..20 {
            assert_eq!(
                PageFeatures::synthesize(&mut a, 0.7),
                PageFeatures::synthesize(&mut b, 0.7)
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn synthesize_rejects_bad_complexity() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = PageFeatures::synthesize(&mut rng, 1.5);
    }
}
