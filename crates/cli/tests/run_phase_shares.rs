//! `ipu-sim run` with two worker threads: the phase breakdown divides span
//! time summed over both workers by the thread time the run had, so no
//! phase exceeds 100% and the phases plus the residual make 100%.

use std::process::Command;

#[test]
fn parallel_run_phase_shares_sum_to_one_hundred_percent() {
    let out = Command::new(env!("CARGO_BIN_EXE_ipu-sim"))
        .args([
            "run",
            "--traces",
            "ts0",
            "--schemes",
            "baseline,mga,ipu",
            "--scale",
            "0.005",
            "--threads",
            "2",
            "--no-cache",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (_, table) = stdout
        .split_once("Phase breakdown")
        .expect("run appends the phase breakdown");
    let header = table.lines().next().unwrap_or_default();
    assert!(
        header.contains("shares of 2 threads"),
        "the header names the denominator: {header}"
    );
    let mut shares = Vec::new();
    for line in table.lines().skip(3) {
        let Some(share) = line.split_whitespace().last() else {
            break;
        };
        let Some(pct) = share.strip_suffix('%') else {
            break;
        };
        let name = line.split_whitespace().next().unwrap_or_default();
        shares.push((name.to_string(), pct.parse::<f64>().expect("a percentage")));
    }
    assert!(
        shares.iter().any(|(name, _)| name == "(uninstrumented)"),
        "residual row missing:\n{table}"
    );
    assert!(
        shares.iter().any(|(name, _)| name == "event_core"),
        "event-core phase missing:\n{table}"
    );
    for (name, pct) in &shares {
        assert!(*pct <= 100.0, "{name} at {pct}%:\n{table}");
    }
    // Each row is rounded to 0.1%, so the sum may miss 100 by half a tenth
    // per row.
    let sum: f64 = shares.iter().map(|(_, pct)| pct).sum();
    let slack = 0.05 * shares.len() as f64 + 1e-9;
    assert!(
        (sum - 100.0).abs() <= slack,
        "shares sum to {sum}%:\n{table}"
    );
}
