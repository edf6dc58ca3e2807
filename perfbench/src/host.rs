//! Host fingerprint and process measurements. Numbers are only ever
//! compared between runs with the same fingerprint.

/// What identifies the host and build a result came from.
pub struct Fingerprint {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// Git revision of the checkout, when it is a git checkout.
    pub git: String,
}

/// Read the fingerprint of this host and checkout.
pub fn fingerprint() -> Fingerprint {
    Fingerprint {
        nproc: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
        rustc: env!("PERFBENCH_RUSTC"),
        git: git_revision().unwrap_or_else(|| "unknown".into()),
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The commit `.git/HEAD` names, read from the working directory only
/// (a checkout without `.git` reports none).
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, r)| *r == name)
        .map(|(rev, _)| rev.to_string())
}

/// Peak resident set size of this process, bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Host ns of a fixed reference computation shaped like a DES hot path:
/// a binary heap of timestamps and a hash map of live entries, churned
/// in a fixed pseudo-random order. Its work never changes, so its time
/// tracks only how fast the host is running right now.
pub fn host_probe() -> u64 {
    use std::collections::{BinaryHeap, HashMap};
    let t0 = std::time::Instant::now();
    let mut heap = BinaryHeap::with_capacity(1 << 16);
    let mut live: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse(x >> 40));
        live.insert(x & 0xffff, i);
        if i % 2 == 1 {
            if let Some(std::cmp::Reverse(t)) = heap.pop() {
                acc = acc.wrapping_add(live.remove(&(t & 0xffff)).unwrap_or(t));
            }
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as u64
}
