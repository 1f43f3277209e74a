//! Wall-clock pacing of arrival schedules for the real threaded runtime.

use crate::Micros;
use std::time::{Duration, Instant};

/// Iterates over the blocks of `data`, yielding each block no earlier than
/// its scheduled arrival time (measured from construction).
///
/// For a caller that feeds blocks on its own; both executors take the
/// schedule directly instead.
pub struct PacedBlocks<'a> {
    data: &'a [u8],
    block_bytes: usize,
    schedule: Vec<Micros>,
    next: usize,
    start: Instant,
    /// Wall-clock compression: schedule µs are divided by this factor.
    time_scale: u64,
}

impl<'a> PacedBlocks<'a> {
    /// Pace `data` (split into `block_bytes` blocks) along `schedule`.
    ///
    /// `schedule` must contain one entry per block (see
    /// [`crate::ArrivalModel::schedule`]).
    pub fn new(data: &'a [u8], block_bytes: usize, schedule: Vec<Micros>) -> Self {
        let n_blocks = data.len().div_ceil(block_bytes.max(1));
        assert_eq!(
            schedule.len(),
            n_blocks,
            "schedule length must equal block count"
        );
        PacedBlocks {
            data,
            block_bytes,
            schedule,
            next: 0,
            start: Instant::now(),
            time_scale: 1,
        }
    }

    /// Speed up wall-clock pacing by `factor` (tests use large factors so a
    /// "6-second socket transfer" finishes in milliseconds).
    pub fn with_time_scale(mut self, factor: u64) -> Self {
        self.time_scale = factor.max(1);
        self
    }

    /// Number of blocks remaining.
    pub fn remaining(&self) -> usize {
        self.schedule.len() - self.next
    }
}

impl<'a> Iterator for PacedBlocks<'a> {
    /// `(block_index, scheduled_arrival_us, block)`.
    type Item = (usize, Micros, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.schedule.len() {
            return None;
        }
        let idx = self.next;
        let due = Duration::from_micros(self.schedule[idx] / self.time_scale);
        let elapsed = self.start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
        let lo = idx * self.block_bytes;
        let hi = ((idx + 1) * self.block_bytes).min(self.data.len());
        self.next += 1;
        Some((idx, self.schedule[idx], &self.data[lo..hi]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ArrivalModel, Uniform};

    #[test]
    fn yields_every_block_in_order() {
        let data: Vec<u8> = (0..1000u16).map(|i| i as u8).collect();
        let schedule = Uniform {
            gap_us: 0,
            start_us: 0,
        }
        .schedule(4, 256);
        let blocks: Vec<_> = PacedBlocks::new(&data, 256, schedule).collect();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0].2.len(), 256);
        assert_eq!(blocks[3].2.len(), 1000 - 3 * 256);
        let rebuilt: Vec<u8> = blocks.iter().flat_map(|b| b.2.iter().copied()).collect();
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn pacing_delays_delivery() {
        let data = vec![0u8; 512];
        // 20 ms gap, scaled 1x: second block must arrive >= ~20 ms in.
        let schedule = vec![0, 20_000];
        let start = Instant::now();
        let n = PacedBlocks::new(&data, 256, schedule).count();
        assert_eq!(n, 2);
        assert!(start.elapsed() >= Duration::from_millis(18));
    }

    #[test]
    fn time_scale_compresses_waits() {
        let data = vec![0u8; 512];
        let schedule = vec![0, 1_000_000]; // 1 virtual second
        let start = Instant::now();
        let n = PacedBlocks::new(&data, 256, schedule)
            .with_time_scale(1000)
            .count();
        assert_eq!(n, 2);
        assert!(start.elapsed() < Duration::from_millis(500));
    }

    #[test]
    #[should_panic(expected = "schedule length")]
    fn schedule_block_count_mismatch_rejected() {
        let data = vec![0u8; 512];
        let _ = PacedBlocks::new(&data, 256, vec![0]);
    }
}
