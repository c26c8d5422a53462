//! **N2 — epoch discipline** (`ES-A020`).
//!
//! The cacheability-window invariant: a cache keyed on a link-state
//! epoch is only sound if every function that mutates committed
//! `SlotQueue` state also bumps that epoch (`touch()`) or invalidates
//! the caches before returning.
//!
//! Mutators: `commit`, `remove_comm`, `remove_slot_at`, `shift_right`,
//! `insert_at`, `optimal_insert_with`. Reconcilers: `touch`,
//! `invalidate_caches`. `commit_into` is deliberately *not* a mutator:
//! it writes lane-private overlay deltas (DESIGN.md §11), which never
//! feed the shared route cache.
//!
//! Granularity is per function: a fn that calls a mutator without any
//! reconciler call in the same body gets one finding per mutator call
//! site. Test functions are exempt (they assert on raw queue state).
//!
//! Scope: the invariant attaches to core state that *owns* such an
//! epoch, so only `crates/core/src/` files that define a reconciler
//! (`fn touch` / `fn invalidate_caches`) participate. None does today:
//! the one cache that outlives a single search, the overlay lanes'
//! incremental searches, is scoped to one ready task instead of an
//! epoch (DESIGN.md §11).
//! The fluid BBSA path reuses the method names `commit`/`remove_comm`
//! on `RateProfile` without any epoch, so it stays out of scope too.
//!
//! **Backend rule** (`ES-A021`, PR 8): since every link model now
//! carries an epoch (the `LinkModel` trait's cache-invalidation
//! contract, conformance law C6), the *definitions* of the trait's
//! mutating operations in `crates/linksched/src/` are checked too —
//! inverted from the caller-side rule above. A fn named after a trait
//! mutator (`commit`, `remove_comm`, `remove_slot_at`, `shift_right`,
//! `insert_at`, `commit_transfer`, `unschedule`, `restore`) must
//! either call a reconciler (`touch` / `restore_epoch`) itself or
//! delegate to another mutator that does (e.g. `commit_transfer` →
//! `commit`). A backend impl that mutates committed state without
//! bumping its epoch would silently break every epoch-keyed consumer.

use super::Model;
use crate::report::Finding;

/// Calls that mutate committed SlotQueue / link state.
const MUTATORS: [&str; 6] = [
    "commit",
    "remove_comm",
    "remove_slot_at",
    "shift_right",
    "insert_at",
    "optimal_insert_with",
];

/// Calls that reconcile the epoch/caches after mutation.
const RECONCILERS: [&str; 2] = ["touch", "invalidate_caches"];

/// The `LinkModel` trait's mutating operations (plus the concrete
/// queue mutators they delegate to): definitions under
/// `crates/linksched/src/` with these names must reconcile the epoch.
const TRAIT_MUTATORS: [&str; 8] = [
    "commit",
    "remove_comm",
    "remove_slot_at",
    "shift_right",
    "insert_at",
    "commit_transfer",
    "unschedule",
    "restore",
];

/// Reconcilers available inside `es-linksched` itself (where
/// `restore_epoch` is the checkpoint-rewind primitive).
const LINK_RECONCILERS: [&str; 2] = ["touch", "restore_epoch"];

/// Run N2 over the model.
pub fn run(model: &Model) -> Vec<Finding> {
    let mut findings = caller_rule(model);
    findings.extend(backend_rule(model));
    findings
}

/// Caller-side rule (`ES-A020`): in core files that own an epoch, fns
/// that invoke a mutator must reconcile in the same body.
fn caller_rule(model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &model.files {
        if !file.rel.starts_with("crates/core/src/") {
            continue;
        }
        let owns_epoch = file
            .fns
            .iter()
            .any(|f| RECONCILERS.contains(&f.name.as_str()));
        if !owns_epoch {
            continue;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            let reconciles = f
                .calls
                .iter()
                .any(|c| RECONCILERS.contains(&c.callee.as_str()));
            if reconciles {
                continue;
            }
            for c in &f.calls {
                if MUTATORS.contains(&c.callee.as_str()) {
                    findings.push(Finding {
                        code: "ES-A020",
                        pass: "N2",
                        file: file.rel.clone(),
                        line: c.line,
                        message: format!(
                            "`{}` mutates committed link state in `{}` with no \
                             `touch()` / `invalidate_caches()` in the same fn — \
                             the epoch-keyed route cache would serve stale \
                             shortest paths (DESIGN.md §12.2/N2)",
                            c.callee, f.name
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Definition-side rule (`ES-A021`): a backend's implementation of a
/// trait mutator must bump the epoch itself or delegate to another
/// mutator. Bodiless trait declarations never reach the fn model (the
/// parser drops a `fn` pending at `;`), so only real impl bodies are
/// judged.
fn backend_rule(model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &model.files {
        if !file.rel.starts_with("crates/linksched/src/") {
            continue;
        }
        for f in &file.fns {
            if f.is_test || !TRAIT_MUTATORS.contains(&f.name.as_str()) {
                continue;
            }
            let reconciles = f.calls.iter().any(|c| {
                LINK_RECONCILERS.contains(&c.callee.as_str())
                    || (TRAIT_MUTATORS.contains(&c.callee.as_str()) && c.callee != f.name)
            });
            if !reconciles {
                findings.push(Finding {
                    code: "ES-A021",
                    pass: "N2",
                    file: file.rel.clone(),
                    line: f.line,
                    message: format!(
                        "`{}` implements a LinkModel mutator without calling \
                         `touch()` / `restore_epoch()` or delegating to a \
                         mutator that does — committed link state would \
                         change under an unchanged epoch, violating the \
                         trait's invalidation contract (conformance law C6, \
                         DESIGN.md §12.2/N2)",
                        f.name
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> Model {
        Model::from_sources(
            vec![("crates/core/src/t.rs".to_string(), src.to_string())],
            String::new(),
        )
    }

    #[test]
    fn mutation_without_touch_fires() {
        let f = run(&model(
            "fn touch(&mut self) { self.epoch += 1; }\n\
             fn place(q: &mut SlotQueue) { q.commit(slot); }\n",
        ));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "ES-A020");
    }

    #[test]
    fn core_files_without_an_epoch_are_out_of_scope() {
        // No reconciler defined: nothing in the file is epoch-keyed,
        // so queue mutations need no bump (the queue bumps its own).
        assert!(run(&model("fn place(q: &mut SlotQueue) { q.commit(slot); }\n")).is_empty());
    }

    #[test]
    fn mutation_with_touch_is_clean() {
        assert!(run(&model(
            "fn place(&mut self, q: &mut SlotQueue) { q.commit(slot); self.touch(); }\n",
        ))
        .is_empty());
    }

    #[test]
    fn overlay_commit_into_is_exempt() {
        assert!(run(&model(
            "fn place_overlay(d: &mut SlotQueueOverlay) { d.commit_into(slot); }\n",
        ))
        .is_empty());
    }

    #[test]
    fn fluid_rate_profile_files_are_out_of_scope() {
        // BBSA's RateProfile shares the `commit`/`remove_comm` method
        // names but has no epoch-keyed cache; files that never mention
        // the slotted types do not participate.
        assert!(run(&model(
            "fn rollback(p: &mut RateProfile) { p.remove_comm(c); p.commit(c, f); }\n",
        ))
        .is_empty());
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        // The caller-side rule does not apply outside crates/core/src/
        // (and `internal` is not a trait-mutator name, so the backend
        // rule stays quiet too).
        let m = Model::from_sources(
            vec![(
                "crates/linksched/src/slot.rs".to_string(),
                "fn internal(q: &mut Q) { q.commit(s); }".to_string(),
            )],
            String::new(),
        );
        assert!(run(&m).is_empty());
    }

    fn link_model(src: &str) -> Model {
        Model::from_sources(
            vec![(
                "crates/linksched/src/backend.rs".to_string(),
                src.to_string(),
            )],
            String::new(),
        )
    }

    #[test]
    fn backend_mutator_without_epoch_bump_fires() {
        let f = run(&link_model(
            "impl LinkModel for Raw {\n\
             fn commit_transfer(&mut self, c: CommId) { self.slots.push(c); }\n\
             }\n",
        ));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "ES-A021");
        assert!(f[0].message.contains("commit_transfer"), "{}", f[0].message);
    }

    #[test]
    fn backend_mutator_with_touch_is_clean() {
        assert!(run(&link_model(
            "impl LinkModel for Good {\n\
             fn unschedule(&mut self, c: CommId) -> usize { let n = self.drop(c); self.touch(); n }\n\
             }\n",
        ))
        .is_empty());
    }

    #[test]
    fn backend_mutator_may_delegate_to_another_mutator() {
        // `commit_transfer` → `commit` is the real SlotQueue/SafLink
        // shape: the inner mutator owns the epoch bump.
        assert!(run(&link_model(
            "impl LinkModel for Delegating {\n\
             fn commit_transfer(&mut self, c: CommId) { self.queue.commit(c); }\n\
             }\n",
        ))
        .is_empty());
    }

    #[test]
    fn backend_self_recursion_is_not_delegation() {
        // Calling *yourself* reconciles nothing; only a different
        // mutator (or a reconciler) counts.
        let f = run(&link_model(
            "impl LinkModel for Loopy {\n\
             fn unschedule(&mut self, c: CommId) -> usize { self.unschedule(c) }\n\
             }\n",
        ));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "ES-A021");
    }

    #[test]
    fn backend_restore_must_rewind_the_epoch() {
        let f = run(&link_model(
            "impl LinkModel for Fancy {\n\
             fn restore(&mut self, cp: &LinkCheckpoint) { self.slots.truncate(cp.n); }\n\
             }\n",
        ));
        assert_eq!(f.len(), 1);
        assert!(run(&link_model(
            "impl LinkModel for Fine {\n\
             fn restore(&mut self, cp: &LinkCheckpoint) { self.restore_epoch(cp.epoch); }\n\
             }\n",
        ))
        .is_empty());
    }

    #[test]
    fn backend_trait_declarations_and_tests_are_exempt() {
        // A bodiless trait declaration parses to no fn at all; a
        // `#[cfg(test)]` mutation helper is out of scope.
        assert!(run(&link_model(
            "pub trait LinkModel {\n\
             fn commit_transfer(&mut self, c: CommId);\n\
             fn unschedule(&mut self, c: CommId) -> usize;\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             fn commit(q: &mut SlotQueue) { q.slots.clear(); }\n\
             }\n",
        ))
        .is_empty());
    }

    #[test]
    fn backend_rule_is_scoped_to_linksched() {
        // The same definition outside crates/linksched/src/ is judged
        // only by the caller-side rule (which exempts it here because
        // the file never mentions a slotted type).
        let m = Model::from_sources(
            vec![(
                "crates/net/src/x.rs".to_string(),
                "fn unschedule(&mut self) { self.n += 1; }".to_string(),
            )],
            String::new(),
        );
        assert!(run(&m).is_empty());
    }
}
