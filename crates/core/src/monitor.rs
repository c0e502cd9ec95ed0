//! Deployment-time coverage monitoring — the operational form of the
//! paper's concept-shift application (Section IV-D (iii)): "under
//! such scenario the actual coverage of the model would drop
//! significantly; hence, raising a flag that the model needs to be
//! retrained".

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Rolling-window coverage monitor.
///
/// Feed it the model's per-wafer select/abstain decisions; once the
/// window is full, it raises one [`CoverageAlarm`] each time the
/// rolling coverage crosses below `alarm_fraction · target_coverage`.
/// Alarms are edge-triggered: a sustained collapse is one incident,
/// and the monitor re-arms once coverage is back at or above the line.
///
/// # Example
///
/// ```
/// use selective::monitor::CoverageMonitor;
///
/// let mut monitor = CoverageMonitor::new(0.5, 10, 0.5);
/// // A healthy stream: every other wafer selected (coverage 0.5).
/// for i in 0..10 {
///     assert!(monitor.observe(i % 2 == 0).is_none());
/// }
/// // Distribution shifts: the model abstains on everything.
/// let mut alarm = None;
/// for _ in 0..10 {
///     alarm = alarm.or(monitor.observe(false));
/// }
/// assert!(alarm.is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageMonitor {
    target_coverage: f64,
    alarm_fraction: f64,
    window: usize,
    decisions: VecDeque<bool>,
    selected_in_window: usize,
    observed: u64,
    /// Whether rolling coverage is currently below the alarm line (an
    /// incident is open and no further alarm fires until it closes).
    below_line: bool,
}

/// Raised when rolling coverage collapses below the alarm line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageAlarm {
    /// Rolling coverage at the moment of the alarm.
    pub rolling_coverage: f64,
    /// The alarm line (`alarm_fraction · target_coverage`).
    pub alarm_line: f64,
    /// Total wafers observed so far.
    pub observed: u64,
}

impl CoverageMonitor {
    /// New monitor for a model trained at `target_coverage`, with a
    /// rolling window of `window` wafers and an alarm at
    /// `alarm_fraction` of the target.
    ///
    /// # Panics
    ///
    /// Panics if `target_coverage` is not in `(0, 1]`, `window` is
    /// zero, or `alarm_fraction` is not in `(0, 1]`.
    #[must_use]
    pub fn new(target_coverage: f64, window: usize, alarm_fraction: f64) -> Self {
        assert!(
            target_coverage > 0.0 && target_coverage <= 1.0,
            "target coverage must be in (0, 1]"
        );
        assert!(window > 0, "window must be non-zero");
        assert!(alarm_fraction > 0.0 && alarm_fraction <= 1.0, "alarm fraction must be in (0, 1]");
        CoverageMonitor {
            target_coverage,
            alarm_fraction,
            window,
            decisions: VecDeque::with_capacity(window),
            selected_in_window: 0,
            observed: 0,
            below_line: false,
        }
    }

    /// Record one wafer decision (`true` = the model selected /
    /// labeled it). Returns an alarm when the window is full and this
    /// decision takes the rolling coverage below the alarm line; while
    /// coverage stays below it, later decisions return `None`.
    pub fn observe(&mut self, selected: bool) -> Option<CoverageAlarm> {
        self.observed += 1;
        if self.decisions.len() == self.window {
            if let Some(old) = self.decisions.pop_front() {
                if old {
                    self.selected_in_window -= 1;
                }
            }
        }
        self.decisions.push_back(selected);
        if selected {
            self.selected_in_window += 1;
        }
        if self.decisions.len() < self.window {
            return None;
        }
        let rolling = self.rolling_coverage();
        let line = self.alarm_line();
        let was_below = std::mem::replace(&mut self.below_line, rolling < line);
        (self.below_line && !was_below).then_some(CoverageAlarm {
            rolling_coverage: rolling,
            alarm_line: line,
            observed: self.observed,
        })
    }

    /// Coverage over the current window (0 until any data arrives).
    #[must_use]
    pub fn rolling_coverage(&self) -> f64 {
        if self.decisions.is_empty() {
            0.0
        } else {
            self.selected_in_window as f64 / self.decisions.len() as f64
        }
    }

    /// The coverage level below which alarms fire.
    #[must_use]
    pub fn alarm_line(&self) -> f64 {
        self.alarm_fraction * self.target_coverage
    }

    /// Total wafers observed.
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_alarm_before_window_fills() {
        let mut m = CoverageMonitor::new(0.5, 100, 0.5);
        for _ in 0..99 {
            assert!(m.observe(false).is_none());
        }
    }

    #[test]
    fn healthy_stream_never_alarms() {
        let mut m = CoverageMonitor::new(0.5, 20, 0.5);
        for i in 0..200 {
            assert!(m.observe(i % 2 == 0).is_none(), "false alarm at {i}");
        }
        assert!((m.rolling_coverage() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn coverage_collapse_triggers_alarm() {
        let mut m = CoverageMonitor::new(0.5, 20, 0.5);
        for i in 0..20 {
            let _ = m.observe(i % 2 == 0);
        }
        // Shift: abstain on everything from now on.
        let mut fired = None;
        for _ in 0..20 {
            fired = fired.or(m.observe(false));
        }
        let alarm = fired.expect("alarm should fire");
        assert!(alarm.rolling_coverage < 0.25);
        assert_eq!(alarm.alarm_line, 0.25);
    }

    #[test]
    fn recovery_clears_alarms() {
        let mut m = CoverageMonitor::new(0.5, 10, 0.5);
        for _ in 0..20 {
            let _ = m.observe(false);
        }
        // Back to healthy coverage: window flushes and alarms stop.
        let mut last = None;
        for i in 0..20 {
            last = m.observe(i % 2 == 0);
        }
        assert!(last.is_none());
    }

    #[test]
    fn sustained_collapse_is_one_incident_until_recovery() {
        let window = 10;
        let mut m = CoverageMonitor::new(0.5, window, 0.5);
        let mut alarms = 0;
        for _ in 0..100 * window {
            alarms += usize::from(m.observe(false).is_some());
        }
        assert_eq!(alarms, 1, "a sustained collapse must alarm once, not once per wafer");
        // Recovery re-arms the monitor; a second collapse is a second
        // incident.
        for _ in 0..window {
            alarms += usize::from(m.observe(true).is_some());
        }
        assert!(m.rolling_coverage() >= m.alarm_line());
        for _ in 0..100 * window {
            alarms += usize::from(m.observe(false).is_some());
        }
        assert_eq!(alarms, 2);
    }

    #[test]
    fn window_eviction_keeps_counts_consistent() {
        let mut m = CoverageMonitor::new(1.0, 4, 0.1);
        let pattern = [true, true, false, false, true, false, true, true];
        for &d in &pattern {
            let _ = m.observe(d);
        }
        // Window holds the last 4: [true, false, true, true] -> 0.75.
        assert!((m.rolling_coverage() - 0.75).abs() < 1e-9);
        assert_eq!(m.observed(), 8);
    }
}
