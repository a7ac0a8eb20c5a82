//! Resident-memory readings from `/proc/<pid>/status`: `VmHWM` (peak
//! resident set) and `VmRSS` (current resident set).

/// Value of a `Key:   1234 kB` line of a proc status file, in kB.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse::<u64>().ok()?;
        match parts.next() {
            Some("kB") | None => Some(value),
            Some(_) => None,
        }
    })
}

/// A process's memory reading, MB (2^20 bytes).
#[derive(Debug, Clone, Copy)]
pub struct Mem {
    pub rss_mb: f64,
    pub hwm_mb: f64,
}

/// Read `pid`'s status (`None` = this process).
pub fn read(pid: Option<u32>) -> Result<Mem, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let get = |key: &str| {
        status_kb(&text, key)
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| format!("{path} has no {key} line"))
    };
    Ok(Mem {
        rss_mb: get("VmRSS")?,
        hwm_mb: get("VmHWM")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\ttrkx\nVmPeak:\t 5120000 kB\nVmHWM:\t  204800 kB\n\
                          VmRSS:\t  102400 kB\nThreads:\t3\n";

    #[test]
    fn parses_hwm_and_rss() {
        assert_eq!(status_kb(STATUS, "VmHWM"), Some(204_800));
        assert_eq!(status_kb(STATUS, "VmRSS"), Some(102_400));
        assert_eq!(status_kb(STATUS, "Threads"), Some(3));
    }

    #[test]
    fn rejects_missing_keys_prefixes_and_other_units() {
        assert_eq!(status_kb(STATUS, "VmSwap"), None);
        // "Vm" is a prefix of several keys but not a key itself.
        assert_eq!(status_kb(STATUS, "Vm"), None);
        assert_eq!(status_kb("VmRSS:\t12 MB\n", "VmRSS"), None);
        assert_eq!(status_kb("VmRSS:\tlots kB\n", "VmRSS"), None);
    }

    #[test]
    fn reads_this_process() {
        let m = read(None).expect("own status");
        assert!(m.rss_mb > 0.0 && m.hwm_mb >= m.rss_mb);
    }
}
