//! Where a result came from: code version, machine, toolchain, date, and
//! the run's own parameters.

use std::time::{SystemTime, UNIX_EPOCH};

use crate::json;

/// The commit of the checkout the benchmark runs in, read from `.git`
/// under the working directory; "unknown" outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DDTHH:MM:SSZ` for a Unix time (civil-from-days, proleptic
/// Gregorian calendar).
fn utc_date(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem / 60 % 60,
        rem % 60
    )
}

/// The provenance object as JSON.
pub fn to_json(workload: &str, seed: u64, threads: usize, samples: usize, trace: bool) -> String {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"git_sha\": {}, \"cpu_model\": {}, \"nproc\": {nproc}, \"threads\": {threads}, \
         \"rustc\": {}, \"date\": {}, \"workload\": {}, \"seed\": {seed}, \"samples\": {samples}, \
         \"trace\": {trace}}}",
        json::string(&git_sha()),
        json::string(&cpu_model()),
        json::string(env!("PERFBENCH_RUSTC_VERSION")),
        json::string(&utc_date(now)),
        json::string(workload),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_dates_match_known_instants() {
        assert_eq!(utc_date(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_date(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_date(1_700_000_000), "2023-11-14T22:13:20Z");
    }
}
