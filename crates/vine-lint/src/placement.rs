//! Placement-layer lints: does this library stand a chance of being
//! scheduled and retained on the cluster it is being submitted to?
//!
//! The scheduler (§3.5) will simply never dispatch a library whose
//! resource request exceeds every worker, and the cache will thrash
//! forever on a context bigger than any worker's disk — both are silent
//! starvation at run time, so both are hard errors here.

use crate::diag::Diagnostic;
use vine_core::{LibrarySpec, Resources};

/// V030 + V031 + V032 for one library spec against the fleet's capacities.
/// `workers` is one entry per worker (uniform fleets repeat the same
/// capacity); with no workers known, placement cannot be judged and no
/// findings are produced.
pub fn lint_placement(spec: &LibrarySpec, workers: &[Resources]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if let Some(need) = &spec.resources {
        if !workers.is_empty() && !workers.iter().any(|w| w.can_fit(need)) {
            diags.push(
                Diagnostic::error(
                    "V030",
                    "unschedulable-resources",
                    format!(
                        "library `{}` requests {need:?}, which no worker can satisfy",
                        spec.name
                    ),
                )
                .with_help(
                    "the scheduler will hold this library forever; shrink the request or \
                     provision larger workers",
                ),
            );
        }
    }
    if spec.slots == Some(0) {
        diags.push(
            Diagnostic::error(
                "V031",
                "zero-slots",
                format!("library `{}` declares 0 invocation slots", spec.name),
            )
            .with_help(
                "the runtime silently clamps 0 to 1 slot; say what you mean — omit `slots` \
                 to derive it from resources",
            ),
        );
    }
    let ctx_bytes: u64 = spec.context.files().map(|f| f.materialized_bytes()).sum();
    if !workers.is_empty() {
        let max_disk_bytes = workers
            .iter()
            .map(|w| w.disk_mb.saturating_mul(1024 * 1024))
            .max()
            .unwrap_or(0);
        if ctx_bytes > max_disk_bytes {
            diags.push(
                Diagnostic::error(
                    "V032",
                    "context-exceeds-cache",
                    format!(
                        "context of library `{}` materializes to {ctx_bytes} bytes, larger \
                         than any worker's {max_disk_bytes}-byte disk cache",
                        spec.name
                    ),
                )
                .with_help(
                    "the retain mechanism cannot keep a context that does not fit on disk; \
                     shrink the environment or data files",
                ),
            );
        }
    }
    diags
}
