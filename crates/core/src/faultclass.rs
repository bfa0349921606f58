//! Fault classes: a campaign simulates each distinct injection once.
//!
//! A campaign's trials fork from one fault-free prefix, and until its
//! first injection a trial only differs from the others in its
//! injectors' RNG and cadence state: no injector writes the system
//! before it records something. So two trials whose first injection
//! step ends with the same records and the same cadence state are in
//! the same system state, and from there on they differ only where an
//! injector draws from its RNG, which it does only at a due call. A
//! trial that reaches no due call after its first injection step has a
//! suffix every trial of its class repeats, and its result is theirs
//! too, up to the seed. E3 draws every fault from 512 (register, bit)
//! pairs, so most of a sampled campaign is such repeats (cf. the
//! fault-equivalence pruning of Schirmeier, Borchert & Spinczyk, DSN
//! 2015, and FAIL\*, EDCC 2015).
//!
//! [`FaultClasses`] is the cache one [`crate::Campaign::execute`] call
//! shares across its workers. It keys a trial by its first injection
//! step: the step, every record of both injectors and both injectors'
//! full cadence state. It keeps a result only if that trial's suffix
//! reached no further due call ([`Class::quiet`]) and the campaign's
//! dump policy does not keep its dump, so every dump comes from a
//! simulated trial. The campaign stores results on the thread that
//! delivers them, so the cache's memory sits in one allocator arena
//! however many workers look it up.

use crate::campaign::TrialResult;
use crate::injector::{InjectionRecord, Injector};
use crate::meminjector::{MemInjectionRecord, MemInjector};
use crate::spec::CadenceCounter;
use crate::system::System;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Both injectors' cadence counters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Cadences {
    reg: Option<CadenceCounter>,
    mem: Option<CadenceCounter>,
}

impl Cadences {
    fn of(system: &System) -> Cadences {
        Cadences {
            reg: system.hv.hook::<Injector>().map(Injector::counter).cloned(),
            mem: system.mem_injector().map(MemInjector::counter).cloned(),
        }
    }

    /// Whether no injector reached a due call between this state and
    /// the `later` one, so neither drew from its RNG in between.
    fn quiet_until(&self, later: &Cadences) -> bool {
        let quiet = |earlier: &Option<CadenceCounter>, now: &Option<CadenceCounter>| {
            (earlier.iter().zip(now)).all(|(earlier, now)| now.no_due_since(earlier))
        };
        quiet(&self.reg, &later.reg) && quiet(&self.mem, &later.mem)
    }
}

/// A fault class as a borrowed key: what hashing and lookup compare.
#[derive(PartialEq, Hash)]
struct ClassKey<'a> {
    step: u64,
    injections: &'a [InjectionRecord],
    mem_injections: &'a [MemInjectionRecord],
    cadences: &'a Cadences,
}

impl ClassKey<'_> {
    fn digest(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }
}

/// The class of a trial that missed the cache, kept until it ends: its
/// key's digest, step and cadence state, and how many records of each
/// injector its key holds.
pub(crate) struct Class {
    digest: u64,
    step: u64,
    records: (usize, usize),
    cadences: Cadences,
}

/// A stored result under its class. The class's records are the first
/// ones of the result's report (all of them: a stored trial recorded
/// nothing after its first injection step).
struct Stored {
    class: Class,
    result: TrialResult,
}

impl Stored {
    fn key(&self) -> ClassKey<'_> {
        let (injections, mem_injections) = self.class.records;
        let report = &self.result.report;
        ClassKey {
            step: self.class.step,
            injections: &report.injections[..injections],
            mem_injections: &report.mem_injections[..mem_injections],
            cadences: &self.class.cadences,
        }
    }
}

impl Class {
    /// The class, if the `finished` trial drew nothing from either
    /// injector's RNG after its first injection step: only then does
    /// every trial of the class finish the same way.
    pub(crate) fn quiet(self, finished: &System) -> Option<Class> {
        self.cadences
            .quiet_until(&Cadences::of(finished))
            .then_some(self)
    }
}

/// One campaign call's fault-class cache, shared by its workers and
/// dropped when the call returns.
#[derive(Default)]
pub(crate) struct FaultClasses {
    /// Stored results by key digest, boxed so that the map's nodes stay
    /// small. A digest collision between two classes keeps the first;
    /// the second then always misses.
    stored: Mutex<BTreeMap<u64, Box<Stored>>>,
    hits: AtomicUsize,
}

impl FaultClasses {
    /// Looks `system` up at the end of its first injection step: breaks
    /// with the stored result of its class, reseeded `seed`, or goes on
    /// with the class to [store](FaultClasses::store) its result under
    /// once it ends (`None` when nothing was injected). Allocates only
    /// the returned result.
    pub(crate) fn find(
        &self,
        system: &System,
        seed: u64,
    ) -> ControlFlow<TrialResult, Option<Class>> {
        let (injections, mem_injections) = (system.injections(), system.mem_injections());
        if injections.is_empty() && mem_injections.is_empty() {
            return ControlFlow::Continue(None);
        }
        let cadences = Cadences::of(system);
        let key = ClassKey {
            step: system.steps_run(),
            injections,
            mem_injections,
            cadences: &cadences,
        };
        let digest = key.digest();
        let stored = self.stored.lock().expect("fault-class cache poisoned");
        if let Some(hit) = stored.get(&digest).filter(|s| s.key() == key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return ControlFlow::Break(TrialResult {
                seed,
                ..hit.result.clone()
            });
        }
        ControlFlow::Continue(Some(Class {
            digest,
            step: key.step,
            records: (injections.len(), mem_injections.len()),
            cadences,
        }))
    }

    /// Stores a copy of `result`, the result of a [quiet](Class::quiet)
    /// trial of `class` whose dump the campaign does not keep.
    pub(crate) fn store(&self, class: Class, result: &TrialResult) {
        let mut stored = self.stored.lock().expect("fault-class cache poisoned");
        if let Entry::Vacant(slot) = stored.entry(class.digest) {
            slot.insert(Box::new(Stored {
                class,
                result: result.clone(),
            }));
        }
    }

    /// Trials served from the cache so far.
    pub(crate) fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}
