//! Low-priority migration streams (§6 "Live cache migration").
//!
//! Hetis migrates KV cache on low-priority CUDA streams so collective
//! communication of ongoing inference is never blocked. We model each
//! directed (src-host → dst-host) pair as an independent queue that gets a
//! fixed *share* of the link bandwidth; foreground traffic sees the full
//! link, migrations see the share and queue FIFO behind each other.

use super::link::AlphaBeta;
use crate::calib::MIGRATION_BW_SHARE;
use std::collections::HashMap;

/// FIFO background-transfer scheduler over a set of directed paths.
#[derive(Debug, Clone, Default)]
pub struct MigrationStream {
    /// Per-path time at which the previous migration drains.
    busy_until: HashMap<(u32, u32), f64>,
}

impl MigrationStream {
    /// An idle stream scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a background copy of `bytes` over `link` on the directed
    /// path `src → dst` starting no earlier than `now`; returns completion
    /// time. Foreground traffic is *not* delayed (low-priority stream); the
    /// copy itself runs at `MIGRATION_BW_SHARE` of the link bandwidth.
    pub fn schedule(&mut self, src: u32, dst: u32, link: AlphaBeta, bytes: f64, now: f64) -> f64 {
        if bytes <= 0.0 || (link.alpha == 0.0 && link.beta == 0.0) {
            // Loopback or empty: instantaneous.
            return now;
        }
        let slot = self.busy_until.entry((src, dst)).or_insert(0.0);
        let start = now.max(*slot);
        let duration = link.alpha + link.beta * bytes / MIGRATION_BW_SHARE;
        let done = start + duration;
        *slot = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::link::LinkKind;

    #[test]
    fn migration_slower_than_foreground() {
        let link = AlphaBeta::of(LinkKind::InterHost);
        let mut s = MigrationStream::new();
        let done = s.schedule(0, 1, link, 1e9, 0.0);
        let fg = link.time(1e9);
        assert!(done > fg, "migration {done} should exceed foreground {fg}");
        assert!((done - (link.alpha + link.beta * 1e9 / MIGRATION_BW_SHARE)).abs() < 1e-12);
    }

    #[test]
    fn fifo_per_path() {
        let link = AlphaBeta::of(LinkKind::InterHost);
        let mut s = MigrationStream::new();
        let d1 = s.schedule(0, 1, link, 1e8, 0.0);
        let d2 = s.schedule(0, 1, link, 1e8, 0.0);
        assert!(d2 > d1);
        assert!((d2 - 2.0 * d1).abs() < 1e-9);
        // A different path is independent.
        let d3 = s.schedule(1, 0, link, 1e8, 0.0);
        assert!((d3 - d1).abs() < 1e-12);
    }

    #[test]
    fn late_start_respected() {
        let link = AlphaBeta::of(LinkKind::InterHost);
        let mut s = MigrationStream::new();
        let d = s.schedule(0, 1, link, 1e8, 5.0);
        assert!(d > 5.0);
        assert!((d - 5.0 - (link.alpha + link.beta * 1e8 / MIGRATION_BW_SHARE)).abs() < 1e-12);
    }

    #[test]
    fn loopback_instant() {
        let mut s = MigrationStream::new();
        let d = s.schedule(2, 2, AlphaBeta::of(LinkKind::Loopback), 1e9, 3.0);
        assert_eq!(d, 3.0);
    }
}
