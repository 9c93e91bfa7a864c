//! The open-loop schedule of `wire_paced`.
//!
//! Slot `i` is due at `start + i × period`, fixed before the run starts
//! and never derived from completions.  When the sender falls behind — a
//! stalled socket, a slow acknowledgement — it sends the missed slots as
//! soon as it can, and each one's latency is still measured from its own
//! due time, so a stall is charged to every report that waited for it
//! (no coordinated omission).

/// What a connection must offer the open-loop driver.  Times are
/// nanoseconds on one monotonic origin; `acks` receives `(slot,
/// observed_at)` for every acknowledgement the call read.
pub trait Slots {
    /// The current time.
    fn now(&self) -> u64;
    /// Waits until `t` (or later), reading acknowledgements meanwhile.
    fn idle_until(&mut self, t: u64, acks: &mut Vec<(u64, u64)>) -> Result<(), String>;
    /// Sends slot `slot` now.
    fn send(&mut self, slot: u64, acks: &mut Vec<(u64, u64)>) -> Result<(), String>;
    /// Reads every outstanding acknowledgement.
    fn flush(&mut self, acks: &mut Vec<(u64, u64)>) -> Result<(), String>;
}

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoop {
    /// When slot 0 is due.
    pub start: u64,
    /// Time between consecutive slots.
    pub period: u64,
}

/// What an open-loop run measured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenLoopOutcome {
    /// Slots sent (every slot due before the end, late or not).
    pub slots: u64,
    /// Per slot: how late the sender started it against its due time.
    pub late_ns: Vec<u64>,
    /// Per acknowledged slot: `(observed_at, observed_at − due)`.
    pub acks: Vec<(u64, u64)>,
    /// Slots due before the end that were still unsent at the cutoff.
    pub unsent: u64,
}

impl OpenLoop {
    /// When `slot` is due.
    pub fn due(&self, slot: u64) -> u64 {
        self.start + slot * self.period
    }

    /// Sends every slot due before `end`, in order, each as soon as it is
    /// due or, if the sender is behind, immediately — until `cutoff`,
    /// after which a backlog too deep to clear is counted as unsent.
    pub fn run(
        &self,
        end: u64,
        cutoff: u64,
        conn: &mut impl Slots,
    ) -> Result<OpenLoopOutcome, String> {
        let mut out = OpenLoopOutcome::default();
        let mut acks = Vec::new();
        let due_slots = end.saturating_sub(self.start).div_ceil(self.period);
        while out.slots < due_slots && conn.now() < cutoff {
            let due = self.due(out.slots);
            conn.idle_until(due, &mut acks)?;
            out.late_ns.push(conn.now().saturating_sub(due));
            conn.send(out.slots, &mut acks)?;
            out.slots += 1;
        }
        out.unsent = due_slots - out.slots;
        conn.flush(&mut acks)?;
        out.acks = acks
            .into_iter()
            .map(|(slot, at)| (at, at.saturating_sub(self.due(slot))))
            .collect();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A simulated connection on a manual clock: every send costs
    /// `send_cost`, every ack arrives `rtt` after its send, and the send
    /// of `stall_slot` blocks for `stall` first.
    struct Fake {
        now: u64,
        send_cost: u64,
        rtt: u64,
        stall_slot: u64,
        stall: u64,
        in_flight: VecDeque<(u64, u64)>,
    }

    impl Fake {
        fn read_arrived(&mut self, until: u64, acks: &mut Vec<(u64, u64)>) {
            while let Some(&(slot, arrives)) = self.in_flight.front() {
                if arrives > until {
                    break;
                }
                self.now = self.now.max(arrives);
                acks.push((slot, self.now));
                self.in_flight.pop_front();
            }
        }
    }

    impl Slots for Fake {
        fn now(&self) -> u64 {
            self.now
        }
        fn idle_until(&mut self, t: u64, acks: &mut Vec<(u64, u64)>) -> Result<(), String> {
            self.read_arrived(t, acks);
            self.now = self.now.max(t);
            Ok(())
        }
        fn send(&mut self, slot: u64, _acks: &mut Vec<(u64, u64)>) -> Result<(), String> {
            if slot == self.stall_slot {
                self.now += self.stall;
            }
            self.now += self.send_cost;
            self.in_flight.push_back((slot, self.now + self.rtt));
            Ok(())
        }
        fn flush(&mut self, acks: &mut Vec<(u64, u64)>) -> Result<(), String> {
            self.read_arrived(u64::MAX, acks);
            Ok(())
        }
    }

    #[test]
    fn a_stalled_senders_missed_slots_count_from_their_due_time() {
        let schedule = OpenLoop {
            start: 1_000,
            period: 100,
        };
        let mut conn = Fake {
            now: 0,
            send_cost: 5,
            rtt: 10,
            stall_slot: 3,
            stall: 1_000,
            in_flight: VecDeque::new(),
        };
        let out = schedule.run(schedule.due(40), u64::MAX, &mut conn).unwrap();

        // Every slot due before the end was sent — none were skipped
        // while the sender was stalled.
        assert_eq!(out.slots, 40);
        assert_eq!(out.acks.len(), 40);
        // Unstalled slots: on time, acknowledged send_cost + rtt after due.
        assert_eq!(out.late_ns[0], 0);
        assert_eq!(out.acks[0].1, 15);
        // Slot 3 stalls 1000 ns inside its send; slots 4..=13 fell due
        // during the stall and went out late, back to back.
        assert!(out.acks[3].1 >= 1_015);
        let slot4_sent = schedule.due(3) + 1_000 + 5;
        assert_eq!(out.late_ns[4], slot4_sent - schedule.due(4));
        // Their latency is charged from their due time: slot 4 cannot be
        // acknowledged before its lateness plus send_cost + rtt, far above
        // the 15 ns of an on-time slot.
        assert!(out.acks[4].1 >= out.late_ns[4] + 15);
        assert!(out.acks[4].1 >= 920);
        assert!(out.acks[4..=13].iter().all(|&(_, l)| l > 15));
        // The sender caught up: a later slot is back to send_cost + rtt.
        assert_eq!(out.late_ns[39], 0);
        assert_eq!(out.acks[39].1, 15);
        // The stall shows in the schedule lateness too.
        assert!(out.late_ns.iter().filter(|&&l| l > 0).count() >= 10);
        assert_eq!(out.unsent, 0);
    }

    #[test]
    fn a_backlog_past_the_cutoff_is_counted_unsent() {
        let schedule = OpenLoop {
            start: 0,
            period: 10,
        };
        // Every send takes 30 ns: the sender falls further behind each
        // slot and is cut off at t = 300 with slots still due.
        let mut conn = Fake {
            now: 0,
            send_cost: 30,
            rtt: 1,
            stall_slot: u64::MAX,
            stall: 0,
            in_flight: VecDeque::new(),
        };
        let out = schedule.run(200, 300, &mut conn).unwrap();
        assert_eq!(out.slots, 10);
        assert_eq!(out.unsent, 10);
        assert_eq!(out.acks.len(), 10);
    }

    #[test]
    fn due_times_depend_on_the_schedule_alone() {
        let schedule = OpenLoop {
            start: 50,
            period: 20,
        };
        assert_eq!(schedule.due(0), 50);
        assert_eq!(schedule.due(7), 190);
    }
}
