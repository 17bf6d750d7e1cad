//! The paper's 54 multiprogrammed workloads.
//!
//! "We create workloads by combining a web page with an application from
//! each memory intensity category shown in Table III. This results in a
//! total of 54 workload combinations, i.e., 18 web pages, each
//! co-scheduled with an application from the low, medium, and high
//! intensity categories." (Section IV-B)
//!
//! The 42 combinations built from the 14 training pages are the
//! *Webpage-Inclusive* set; the 12 built from held-out pages are
//! *Webpage-Neutral*.

use dora_browser::catalog::{Catalog, CatalogPage};
use dora_coworkloads::{Intensity, Kernel};

/// One multiprogrammed workload: a page plus a co-run kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The web page loaded in the foreground.
    pub page: CatalogPage,
    /// The interfering kernel pinned to core 2.
    pub kernel: Kernel,
}

impl Workload {
    /// A stable identifier like `Reddit+bfs`.
    pub fn id(&self) -> String {
        format!("{}+{}", self.page.name, self.kernel.name())
    }

    /// Whether the workload belongs to the Webpage-Inclusive training set.
    pub fn is_training(&self) -> bool {
        self.page.training
    }

    /// The co-runner's Table III intensity class.
    pub fn intensity(&self) -> Intensity {
        self.kernel.intensity()
    }
}

/// An ordered collection of workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSet {
    workloads: Vec<Workload>,
}

impl WorkloadSet {
    /// The paper's 54 combinations: every catalog page × one kernel from
    /// each intensity class. Within a class, kernels rotate across pages
    /// (deterministically, by page index) so all nine kernels participate.
    pub fn paper54() -> Self {
        let catalog = Catalog::alexa18();
        let mut workloads = Vec::with_capacity(54);
        for (page_index, page) in catalog.pages().iter().enumerate() {
            for intensity in Intensity::ALL {
                let pool = Kernel::in_class(intensity);
                let kernel = pool[page_index % pool.len()].clone();
                workloads.push(Workload {
                    page: page.clone(),
                    kernel,
                });
            }
        }
        WorkloadSet { workloads }
    }

    /// Builds a set from explicit workloads.
    pub fn from_workloads(workloads: Vec<Workload>) -> Self {
        WorkloadSet { workloads }
    }

    /// All workloads.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }

    /// The Webpage-Inclusive (training-page) subset.
    pub fn inclusive(&self) -> impl Iterator<Item = &Workload> {
        self.workloads.iter().filter(|w| w.is_training())
    }

    /// The Webpage-Neutral (held-out-page) subset.
    pub fn neutral(&self) -> impl Iterator<Item = &Workload> {
        self.workloads.iter().filter(|w| !w.is_training())
    }

    /// Finds a workload by page and kernel name.
    pub fn find(&self, page: &str, kernel: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| {
            w.page.name.eq_ignore_ascii_case(page) && w.kernel.name().eq_ignore_ascii_case(kernel)
        })
    }

    /// The workload for `page` with the class-representative kernel of
    /// `intensity` that `paper54` assigned to that page.
    pub fn find_by_class(&self, page: &str, intensity: Intensity) -> Option<&Workload> {
        self.workloads
            .iter()
            .find(|w| w.page.name.eq_ignore_ascii_case(page) && w.intensity() == intensity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_54_workloads_in_paper_split() {
        let set = WorkloadSet::paper54();
        assert_eq!(set.len(), 54);
        assert_eq!(set.inclusive().count(), 42);
        assert_eq!(set.neutral().count(), 12);
    }

    #[test]
    fn every_page_gets_all_three_classes() {
        let set = WorkloadSet::paper54();
        let catalog = Catalog::alexa18();
        for page in catalog.pages() {
            for intensity in Intensity::ALL {
                assert!(
                    set.find_by_class(page.name, intensity).is_some(),
                    "{} missing {intensity}",
                    page.name
                );
            }
        }
    }

    #[test]
    fn all_nine_kernels_participate() {
        let set = WorkloadSet::paper54();
        let used: std::collections::BTreeSet<&str> =
            set.workloads().iter().map(|w| w.kernel.name()).collect();
        assert_eq!(used.len(), 9, "kernels used: {used:?}");
    }

    #[test]
    fn ids_are_unique() {
        let set = WorkloadSet::paper54();
        let ids: std::collections::BTreeSet<String> =
            set.workloads().iter().map(Workload::id).collect();
        assert_eq!(ids.len(), 54);
    }

    #[test]
    fn find_is_case_insensitive() {
        let set = WorkloadSet::paper54();
        let w = set.find_by_class("reddit", Intensity::High).expect("found");
        assert_eq!(w.page.name, "Reddit");
        assert_eq!(w.intensity(), Intensity::High);
    }

    #[test]
    fn construction_is_deterministic() {
        assert_eq!(WorkloadSet::paper54(), WorkloadSet::paper54());
    }
}
