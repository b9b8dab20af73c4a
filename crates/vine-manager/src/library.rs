//! Library instances: deployed function contexts.
//!
//! A library is "a special task ... that runs like a daemon until
//! terminated and cooperates with the worker process to execute
//! invocations" (§3.4). One [`LibraryInstance`] is one such daemon on one
//! worker: it owns a fixed resource allocation, a number of invocation
//! slots, and a share counter (its Fig 11 "share value").

use std::sync::Arc;
use vine_core::context::LibrarySpec;
use vine_core::ids::{InvocationId, LibraryInstanceId};
use vine_core::resources::Resources;
use vine_core::{Result, VineError};

/// Lifecycle of a deployed library.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LibState {
    /// Files staged; the daemon is booting and running context setup.
    Starting,
    /// Context setup done; serving invocations (§3.4 step 2 complete).
    Ready,
    /// Context setup failed; awaiting removal.
    Failed,
}

/// One deployed library daemon.
#[derive(Clone, Debug, PartialEq)]
pub struct LibraryInstance {
    pub id: LibraryInstanceId,
    /// Shared with the manager's registry and every sibling instance —
    /// specs carry the full context file list, so they are refcounted
    /// rather than deep-cloned per install.
    pub spec: Arc<LibrarySpec>,
    pub state: LibState,
    /// Resources this instance owns on its worker.
    pub resources: Resources,
    /// Concurrent invocation slots.
    pub slots: u32,
    /// Invocations currently executing.
    pub running: Vec<InvocationId>,
    /// Total invocations served to completion — the share value (Fig 11).
    pub served: u64,
}

impl LibraryInstance {
    pub fn new(
        id: LibraryInstanceId,
        spec: Arc<LibrarySpec>,
        resources: Resources,
        slots: u32,
    ) -> LibraryInstance {
        LibraryInstance {
            id,
            spec,
            state: LibState::Starting,
            resources,
            slots: slots.max(1),
            running: Vec::new(),
            served: 0,
        }
    }

    pub fn free_slots(&self) -> u32 {
        self.slots - self.running.len() as u32
    }

    /// An empty library does no work and holds resources; the manager may
    /// reclaim it (§3.5.2).
    pub fn is_empty(&self) -> bool {
        self.running.is_empty()
    }

    pub(crate) fn begin(&mut self, id: InvocationId) -> Result<()> {
        if self.state != LibState::Ready {
            return Err(VineError::Protocol(format!(
                "library {} not ready (state {:?})",
                self.id, self.state
            )));
        }
        if self.free_slots() == 0 {
            return Err(VineError::ResourceExhausted(format!(
                "library {} has no free slots",
                self.id
            )));
        }
        if self.running.contains(&id) {
            return Err(VineError::Protocol(format!(
                "invocation {id} already running on library {}",
                self.id
            )));
        }
        self.running.push(id);
        Ok(())
    }

    /// Free an invocation's slot. Only a `served` invocation counts toward
    /// the share value; one handed back unrun does not.
    pub(crate) fn finish(&mut self, id: InvocationId, served: bool) -> Result<()> {
        match self.running.iter().position(|r| *r == id) {
            Some(pos) => {
                self.running.swap_remove(pos);
                self.served += u64::from(served);
                Ok(())
            }
            None => Err(VineError::Protocol(format!(
                "invocation {id} not running on library {}",
                self.id
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(slots: u32) -> LibraryInstance {
        let mut spec = LibrarySpec::new("lnni");
        spec.functions = vec!["infer".into()];
        let mut inst = LibraryInstance::new(
            LibraryInstanceId(1),
            Arc::new(spec),
            Resources::new(32, 65536, 65536),
            slots,
        );
        inst.state = LibState::Ready;
        inst
    }

    #[test]
    fn slot_accounting() {
        let mut l = lib(2);
        assert_eq!(l.free_slots(), 2);
        l.begin(InvocationId(1)).unwrap();
        l.begin(InvocationId(2)).unwrap();
        assert_eq!(l.free_slots(), 0);
        let e = l.begin(InvocationId(3)).unwrap_err();
        assert!(e.to_string().contains("no free slots"));
        l.finish(InvocationId(1), true).unwrap();
        assert_eq!(l.free_slots(), 1);
        assert_eq!(l.served, 1);
    }

    #[test]
    fn not_ready_rejects_invocations() {
        let mut l = lib(1);
        l.state = LibState::Starting;
        assert!(l.begin(InvocationId(1)).is_err());
        l.state = LibState::Failed;
        assert!(l.begin(InvocationId(1)).is_err());
    }

    #[test]
    fn function_matching() {
        let l = lib(1);
        assert!(l.spec.hosts_function("infer"));
        assert!(!l.spec.hosts_function("train"));
    }

    #[test]
    fn duplicate_begin_rejected() {
        let mut l = lib(4);
        l.begin(InvocationId(5)).unwrap();
        assert!(l.begin(InvocationId(5)).is_err());
    }

    #[test]
    fn finish_unknown_invocation_rejected() {
        let mut l = lib(2);
        assert!(l.finish(InvocationId(9), true).is_err());
    }

    #[test]
    fn share_value_counts_completions_only() {
        let mut l = lib(4);
        for i in 0..4 {
            l.begin(InvocationId(i)).unwrap();
        }
        assert_eq!(l.served, 0);
        for i in 0..4 {
            l.finish(InvocationId(i), i != 0).unwrap();
        }
        assert_eq!(l.served, 3, "a hand-back is not served");
        assert!(l.is_empty());
    }

    #[test]
    fn zero_slot_spec_clamps_to_one() {
        let l = LibraryInstance::new(
            LibraryInstanceId(2),
            Arc::new(LibrarySpec::new("x")),
            Resources::ZERO,
            0,
        );
        assert_eq!(l.slots, 1);
    }
}
