//! The closed-loop measurement core shared by every workload: a
//! recorder that times one operation, verifies its reply outside the
//! timed region and files the latency under its query class, and the
//! loop that issues whole passes over the class list until the time
//! budget is spent.

use std::time::Instant;

use crate::stats::{self, ClassSummary};
use crate::sut::{Quotient, Res};
use crate::trace::Tracer;
use crate::workload::Group;

/// What one caller measured. Every time is real wall time.
pub struct Recorder {
    /// Verified latencies in ns, per class.
    pub samples: Vec<Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Time spent waiting for replies, by tracing mode (`[off, on]`).
    /// Verification and the harness's own bookkeeping are excluded.
    pub busy_ns: [u64; 2],
    /// Verified operations, by tracing mode.
    pub verified: [u64; 2],
    pub tracer: Tracer,
    /// Test hook: the next quotient reply is corrupted before it is
    /// verified, to show that verification fires.
    pub corrupt_next: bool,
}

impl Recorder {
    /// A recorder for caller number `caller` of a run whose clock started
    /// at `epoch`; `corrupt_first` arms the test hook.
    pub fn new(classes: usize, epoch: Instant, caller: u64, corrupt_first: bool) -> Recorder {
        Recorder {
            samples: vec![Vec::new(); classes],
            attempted: 0,
            failed: 0,
            first_error: None,
            busy_ns: [0; 2],
            verified: [0; 2],
            tracer: Tracer::new(epoch, caller),
            corrupt_next: corrupt_first,
        }
    }

    /// Times `op` inside a `request` span, then checks its reply with
    /// `check`. A failed or wrong operation counts as failed and leaves
    /// no latency sample.
    pub fn time<R>(
        &mut self,
        class: usize,
        traced: bool,
        op: impl FnOnce(&mut Tracer) -> Res<R>,
        check: impl FnOnce(&R) -> bool,
    ) -> Option<R> {
        self.tracer.set_enabled(traced);
        self.tracer.begin_request(self.attempted);
        let start = Instant::now();
        let result = self.tracer.span("request", op);
        let ns = start.elapsed().as_nanos() as u64;
        self.attempted += 1;
        self.busy_ns[usize::from(traced)] += ns;
        match result {
            Ok(reply) if check(&reply) => {
                self.samples[class].push(ns);
                self.verified[usize::from(traced)] += 1;
                Some(reply)
            }
            Ok(_) => {
                self.fail(format!("class {class}: wrong reply"));
                None
            }
            Err(e) => {
                self.fail(format!("class {class}: {e}"));
                None
            }
        }
    }

    /// [`time`](Self::time) for an operation that returns a quotient:
    /// the reply's ids, sorted, must equal `expected`.
    pub fn quotient<R: Quotient>(
        &mut self,
        class: usize,
        traced: bool,
        expected: &[i64],
        op: impl FnOnce(&mut Tracer) -> Res<R>,
    ) -> Option<R> {
        self.quotient_where(class, traced, expected, |_| true, op)
    }

    /// [`quotient`](Self::quotient) with a further condition `also` the
    /// reply must meet to count as right.
    pub fn quotient_where<R: Quotient>(
        &mut self,
        class: usize,
        traced: bool,
        expected: &[i64],
        also: impl FnOnce(&R) -> bool,
        op: impl FnOnce(&mut Tracer) -> Res<R>,
    ) -> Option<R> {
        let corrupt = std::mem::take(&mut self.corrupt_next);
        self.time(class, traced, op, |reply| {
            let mut ids = reply.ids();
            if corrupt {
                ids.push(i64::MIN);
            }
            ids.sort_unstable();
            ids == expected && also(reply)
        })
    }

    /// Records the outcome of untimed preparation for the next
    /// operation (a cold start): a failure counts as a failed operation.
    pub fn prepared(&mut self, outcome: Res<()>) {
        if let Err(e) = outcome {
            self.attempted += 1;
            self.fail(format!("preparing the next operation: {e}"));
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    /// Folds another caller's measurements into this one.
    pub fn absorb(&mut self, other: Recorder) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        for mode in 0..2 {
            self.busy_ns[mode] += other.busy_ns[mode];
            self.verified[mode] += other.verified[mode];
        }
        self.tracer.absorb(other.tracer);
    }
}

/// One closed-loop caller: issues every class of its workload once per
/// pass (a class may repeat within the pass), waiting for each reply.
pub trait Caller {
    fn pass(&mut self, rec: &mut Recorder, traced: bool);
}

/// Issues whole passes until `budget_ns` of waiting time is spent. With
/// `alternate`, odd passes are traced and the count is kept even so
/// both modes see the same classes equally often.
pub fn drive(caller: &mut dyn Caller, rec: &mut Recorder, budget_ns: u64, alternate: bool) {
    let mut passes = 0u64;
    loop {
        caller.pass(rec, alternate && passes % 2 == 1);
        passes += 1;
        let spent = rec.busy_ns[0] + rec.busy_ns[1];
        if spent >= budget_ns && !(alternate && passes % 2 == 1) {
            break;
        }
    }
}

/// What a finished main section reports.
pub struct Measured {
    pub classes: Vec<ClassSummary>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Verified operations of all kinds per second of the section's
    /// wall time.
    pub queries_per_s: f64,
    /// Traced ÷ untraced operations per second of waiting time (0 when
    /// no pass was traced).
    pub trace_ratio: f64,
    pub tracer: Tracer,
}

/// Reduces the recorder of a run with `callers` concurrent callers.
pub fn measure(names: &[String], groups: &[Group], rec: Recorder, callers: usize) -> Measured {
    let classes: Vec<ClassSummary> = names
        .iter()
        .zip(groups)
        .zip(&rec.samples)
        .filter_map(|((name, group), samples)| stats::summarize(name, *group, samples))
        .collect();
    // Each caller waits for its own replies one at a time, so the wall
    // time of the section is the waiting time per caller.
    let wall_s = (rec.busy_ns[0] + rec.busy_ns[1]) as f64 / 1e9 / callers as f64;
    let rate = |mode: usize| rec.verified[mode] as f64 / rec.busy_ns[mode] as f64;
    Measured {
        queries_per_s: (rec.verified[0] + rec.verified[1]) as f64 / wall_s,
        trace_ratio: if rec.busy_ns[1] == 0 {
            0.0
        } else {
            rate(1) / rate(0)
        },
        classes,
        attempted: rec.attempted,
        failed: rec.failed,
        first_error: rec.first_error,
        tracer: rec.tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Relation;

    struct Fixed(Vec<i64>);
    impl Quotient for Fixed {
        fn ids(&self) -> Vec<i64> {
            self.0.clone()
        }
    }

    fn recorder(classes: usize) -> Recorder {
        Recorder::new(classes, Instant::now(), 0, false)
    }

    #[test]
    fn wrong_failed_and_corrupted_replies_count_as_failed() {
        let mut rec = recorder(1);
        assert!(rec
            .quotient(0, false, &[1, 2], |_| Ok(Fixed(vec![2, 1])))
            .is_some());
        assert!(rec
            .quotient(0, false, &[1, 2], |_| Ok(Fixed(vec![1])))
            .is_none());
        assert!(rec
            .quotient(0, false, &[1], |_| Err::<Relation, _>("boom".into()))
            .is_none());
        rec.corrupt_next = true;
        assert!(rec
            .quotient(0, false, &[1, 2], |_| Ok(Fixed(vec![1, 2])))
            .is_none());
        assert!(rec
            .quotient(0, false, &[1, 2], |_| Ok(Fixed(vec![1, 2])))
            .is_some());
        assert_eq!((rec.attempted, rec.failed), (5, 3));
        assert_eq!(rec.samples[0].len(), 2);
        assert!(rec.first_error.as_deref().unwrap().contains("wrong reply"));
    }

    struct Count(u64);
    impl Caller for Count {
        fn pass(&mut self, rec: &mut Recorder, traced: bool) {
            self.0 += 1;
            rec.time(0, traced, |t| Ok(t.span("layer", |_| 1)), |one| *one == 1);
        }
    }

    #[test]
    fn drive_runs_at_least_one_pass_and_pairs_traced_passes() {
        let mut c = Count(0);
        let mut rec = recorder(1);
        drive(&mut c, &mut rec, 0, false);
        assert_eq!(c.0, 1);
        assert!(rec.tracer.spans.is_empty());

        let mut c = Count(0);
        let mut rec = recorder(1);
        drive(&mut c, &mut rec, 0, true);
        assert_eq!(c.0, 2);
        assert_eq!(rec.verified, [1, 1]);
        // The traced pass recorded a request span and its layer child.
        assert_eq!(rec.tracer.spans.len(), 2);
        let waited_s = (rec.busy_ns[0] + rec.busy_ns[1]) as f64 / 1e9;
        let m = measure(&["only".to_owned()], &[Group::Query], rec, 1);
        assert_eq!(m.classes[0].n, 2);
        // Two verified operations over the time the caller waited.
        assert_eq!(m.queries_per_s, 2.0 / waited_s);
        assert!(m.trace_ratio > 0.0);
    }
}
