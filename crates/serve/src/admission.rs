//! Admission control: a bounded heavy lane with a fast lane for provably
//! linear plans.
//!
//! The planner already classifies every plan into a
//! [`CostClass`] band. Admission exploits that: plans in
//! [`CostClass::Linear`] — `O(|D|·|Q|)`, the paper's headline bound —
//! are admitted unconditionally (they cannot monopolize the service),
//! while everything superlinear (output-sensitive enumeration, AC
//! fixpoints, rewrite unions, backtracking) competes for a fixed number
//! of heavy slots. A queued heavy query waits on a condvar up to a
//! timeout, then is rejected with a structured error rather than held
//! forever.
//!
//! Two counters publish the policy's behavior:
//! `treequery_admission_queued` (heavy queries that had to wait) and
//! `treequery_admission_rejected` (waits that timed out).

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use treequery_core::CostClass;
use treequery_obs::metrics::{Counter, Registry};

/// The admission wait timed out: every heavy slot stayed occupied for
/// the full timeout. The caller maps this to an `admission_rejected`
/// wire error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionTimeout;

impl std::fmt::Display for AdmissionTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("admission wait timed out: heavy lane saturated")
    }
}

impl std::error::Error for AdmissionTimeout {}

/// What [`Admission::admit`] decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Admitted straight through the fast lane (linear plan).
    FastLane,
    /// Admitted into a free heavy slot without waiting.
    Immediate,
    /// Admitted after waiting for a slot.
    Queued,
}

/// Admission state: heavy slots in use, guarded by a condvar.
pub struct Admission {
    cap: usize,
    in_flight: Mutex<usize>,
    freed: Condvar,
    queued: Counter,
    rejected: Counter,
}

impl Admission {
    /// A controller with `cap` heavy slots, publishing its counters into
    /// `registry`.
    pub fn new(cap: usize, registry: &Registry) -> Admission {
        Admission {
            cap: cap.max(1),
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
            queued: registry.counter(
                "treequery_admission_queued",
                "Heavy-lane queries that waited for an admission slot.",
            ),
            rejected: registry.counter(
                "treequery_admission_rejected",
                "Heavy-lane queries rejected after the admission wait timed out.",
            ),
        }
    }

    /// The heavy-lane capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Admits one query of the given cost class, waiting up to `timeout`
    /// for a heavy slot. The returned [`Permit`] frees the slot on drop
    /// — including on panic and on the cancellation early-return path.
    pub fn admit(
        &self,
        cost: CostClass,
        timeout: Duration,
    ) -> Result<(Permit<'_>, AdmissionVerdict), AdmissionTimeout> {
        if matches!(cost, CostClass::Linear) {
            return Ok((Permit { lane: None }, AdmissionVerdict::FastLane));
        }
        let mut in_flight = self.in_flight.lock().expect("admission poisoned");
        if *in_flight < self.cap {
            *in_flight += 1;
            return Ok((Permit { lane: Some(self) }, AdmissionVerdict::Immediate));
        }
        self.queued.inc();
        let deadline = std::time::Instant::now() + timeout;
        while *in_flight >= self.cap {
            let now = std::time::Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                self.rejected.inc();
                return Err(AdmissionTimeout);
            };
            let (guard, res) = self
                .freed
                .wait_timeout(in_flight, left)
                .expect("admission poisoned");
            in_flight = guard;
            if res.timed_out() && *in_flight >= self.cap {
                self.rejected.inc();
                return Err(AdmissionTimeout);
            }
        }
        *in_flight += 1;
        Ok((Permit { lane: Some(self) }, AdmissionVerdict::Queued))
    }
}

/// RAII admission slot: dropping it frees the heavy slot (fast-lane
/// permits hold nothing).
pub struct Permit<'a> {
    lane: Option<&'a Admission>,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if let Some(adm) = self.lane {
            let mut in_flight = adm.in_flight.lock().expect("admission poisoned");
            *in_flight = in_flight.saturating_sub(1);
            drop(in_flight);
            adm.freed.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_queries_bypass_a_full_heavy_lane() {
        let r = Registry::new();
        let adm = Admission::new(1, &r);
        let (_held, v) = adm
            .admit(CostClass::Exponential, Duration::from_millis(10))
            .unwrap();
        assert_eq!(v, AdmissionVerdict::Immediate);
        // Heavy lane is full; linear still sails through.
        let (_fast, v) = adm
            .admit(CostClass::Linear, Duration::from_millis(10))
            .unwrap();
        assert_eq!(v, AdmissionVerdict::FastLane);
        // Another heavy query times out and is counted.
        assert!(adm
            .admit(CostClass::Polynomial, Duration::from_millis(20))
            .is_err());
        assert_eq!(adm.queued.get(), 1);
        assert_eq!(adm.rejected.get(), 1);
    }

    #[test]
    fn dropping_a_permit_frees_the_slot() {
        let r = Registry::new();
        let adm = Admission::new(1, &r);
        let (held, _) = adm
            .admit(CostClass::OutputSensitive, Duration::from_millis(10))
            .unwrap();
        drop(held);
        let (_again, v) = adm
            .admit(CostClass::OutputSensitive, Duration::from_millis(10))
            .unwrap();
        assert_eq!(v, AdmissionVerdict::Immediate);
    }

    #[test]
    fn a_queued_query_proceeds_when_the_slot_frees() {
        let r = Registry::new();
        let adm = std::sync::Arc::new(Admission::new(1, &r));
        let (held, _) = adm
            .admit(CostClass::Polynomial, Duration::from_millis(10))
            .unwrap();
        let adm2 = std::sync::Arc::clone(&adm);
        let waiter = std::thread::spawn(move || {
            adm2.admit(CostClass::Polynomial, Duration::from_secs(10))
                .map(|(_, v)| v)
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        assert_eq!(waiter.join().unwrap(), Ok(AdmissionVerdict::Queued));
        assert_eq!(adm.rejected.get(), 0);
    }
}
