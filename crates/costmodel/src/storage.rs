//! Storage profiles: load time from byte counts.

use crate::calibration;

/// A storage tier from which image data is loaded.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageProfile {
    /// Fixed per-request latency in seconds (seek / syscall / request).
    pub seek_s: f64,
    /// Streaming throughput in bytes per second.
    pub bytes_per_sec: f64,
}

impl StorageProfile {
    /// Local SSD (the ARCHIVE and ONGOING scenarios).
    pub fn ssd() -> StorageProfile {
        StorageProfile {
            seek_s: calibration::SSD_SEEK_S,
            bytes_per_sec: calibration::SSD_BYTES_PER_SEC,
        }
    }

    /// Seconds to load `bytes` in one request.
    pub fn load_time(&self, bytes: usize) -> f64 {
        self.seek_s + bytes as f64 / self.bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_time_is_affine_in_bytes() {
        let ssd = StorageProfile::ssd();
        let t0 = ssd.load_time(0);
        let t1 = ssd.load_time(500_000);
        assert!((t0 - ssd.seek_s).abs() < 1e-12);
        assert!((t1 - t0 - 1e-3).abs() < 1e-9); // 500 KB at 500 MB/s = 1 ms
    }
}
