//! Host and provenance facts printed with every report.

use std::fmt::Write as _;
use std::path::Path;

#[cfg(target_arch = "x86_64")]
fn cpuid(leaf: u32, sub: u32) -> [u32; 4] {
    // SAFETY: every x86-64 processor implements CPUID.
    #[allow(unused_unsafe)]
    let r = unsafe { std::arch::x86_64::__cpuid_count(leaf, sub) };
    [r.eax, r.ebx, r.ecx, r.edx]
}

/// Processor brand string (CPUID leaves 0x80000002..4).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    if cpuid(0x8000_0000, 0)[0] < 0x8000_0004 {
        return "unknown".into();
    }
    let bytes: Vec<u8> = (0x8000_0002..=0x8000_0004u32)
        .flat_map(|leaf| cpuid(leaf, 0))
        .flat_map(u32::to_le_bytes)
        .collect();
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

/// Size of the largest cache level in bytes (CPUID leaf 4, Intel layout).
#[cfg(target_arch = "x86_64")]
fn llc_bytes() -> Option<u64> {
    let mut best = None;
    for sub in 0..16 {
        let [eax, ebx, ecx, _] = cpuid(4, sub);
        if eax & 0x1f == 0 {
            break;
        }
        let ways = u64::from((ebx >> 22) & 0x3ff) + 1;
        let parts = u64::from((ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(ebx & 0xfff) + 1;
        let sets = u64::from(ecx) + 1;
        best = Some(ways * parts * line * sets);
    }
    best
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

#[cfg(not(target_arch = "x86_64"))]
fn llc_bytes() -> Option<u64> {
    None
}

/// The checked-out commit, read from `.git` when the working directory is
/// a git checkout; `unknown` otherwise.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(refname)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Worker threads the workloads use: the available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance block as one JSON object: host facts, build facts, the
/// seed and the workload's shape and parameters (`params`, already JSON
/// members).
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    params: &[(&str, String)],
) -> String {
    let llc = llc_bytes().map_or("null".to_string(), |b| b.to_string());
    let mut out = format!(
        "{{\"cpu\":{},\"nproc\":{},\"llc_bytes\":{llc},\"gemm_backend\":{},\"commit\":{},\
         \"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"params\":{{",
        json_str(&cpu_model()),
        nproc(),
        json_str(ca_kernels::gemm_backend()),
        json_str(&commit()),
        json_str(workload),
    );
    for (i, (k, v)) in params.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{v}", json_str(k));
    }
    out.push_str("}}");
    out
}
