//! Parser for the MSR-Cambridge block I/O trace format.
//!
//! The SNIA-published MSR Cambridge traces (Narayanan et al., ref. \[20\]) are
//! CSV lines of the form
//!
//! ```text
//! Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//! 128166372003061629,hm,0,Read,383496192,32768,113736
//! ```
//!
//! where `Timestamp` is a Windows FILETIME (100 ns ticks since 1601),
//! `Offset`/`Size` are bytes and `ResponseTime` is in 100 ns units. Timestamps
//! are rebased so the first request arrives at t = 0.

use std::io::BufRead;

use crate::request::{IoRequest, OpKind};

/// A parse failure, with the offending line number (1-based) when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Windows FILETIME tick length in nanoseconds.
const FILETIME_TICK_NS: u64 = 100;

/// Parses one MSR-format CSV line into `(timestamp_ns, op, offset, size)`.
///
/// The timestamp is *absolute* (FILETIME converted to ns); callers rebase.
pub fn parse_msr_line(line: &str, line_no: usize) -> Result<IoRequest, ParseError> {
    let err = |message: String| ParseError {
        line: line_no,
        message,
    };
    let mut fields = line.trim().split(',');
    let mut next = |name: &str| {
        fields
            .next()
            .ok_or_else(|| err(format!("missing field `{name}`")))
    };

    let ts: u64 = next("Timestamp")?
        .trim()
        .parse()
        .map_err(|e| err(format!("bad timestamp: {e}")))?;
    let _hostname = next("Hostname")?;
    let _disk = next("DiskNumber")?;
    let op = match next("Type")?.trim() {
        t if t.eq_ignore_ascii_case("read") => OpKind::Read,
        t if t.eq_ignore_ascii_case("write") => OpKind::Write,
        other => return Err(err(format!("unknown op `{other}`"))),
    };
    let offset: u64 = next("Offset")?
        .trim()
        .parse()
        .map_err(|e| err(format!("bad offset: {e}")))?;
    let size: u64 = next("Size")?
        .trim()
        .parse()
        .map_err(|e| err(format!("bad size: {e}")))?;
    if size == 0 || size > u32::MAX as u64 {
        return Err(err(format!("size {size} out of range")));
    }
    if offset.checked_add(size).is_none() {
        return Err(err(format!("offset {offset} + size {size} overflows u64")));
    }

    Ok(IoRequest::new(
        ts.saturating_mul(FILETIME_TICK_NS),
        op,
        offset,
        size as u32,
    ))
}

/// Parses a whole MSR-format trace, rebasing timestamps to start at zero and
/// sorting by arrival time. Blank lines and a leading header line are skipped;
/// malformed data lines are errors.
pub fn parse_msr_reader<R: BufRead>(reader: R) -> Result<Vec<IoRequest>, ParseError> {
    let _span = ipu_obs::span(ipu_obs::Phase::TraceDecode);
    let mut requests = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line.map_err(|e| ParseError {
            line: line_no,
            message: e.to_string(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if line_no == 1 && trimmed.to_ascii_lowercase().starts_with("timestamp") {
            continue; // header
        }
        requests.push(parse_msr_line(trimmed, line_no)?);
    }
    requests.sort_by_key(|r| r.timestamp_ns);
    if let Some(base) = requests.first().map(|r| r.timestamp_ns) {
        for r in &mut requests {
            r.timestamp_ns -= base;
        }
    }
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
128166372003061629,hm,0,Read,383496192,32768,113736
128166372016382155,hm,0,Write,2748530688,4096,23586
128166372005000000,hm,0,write,2748530688,8192,5000
";

    #[test]
    fn parses_and_rebases_sample() {
        let reqs = parse_msr_reader(SAMPLE.as_bytes()).unwrap();
        assert_eq!(reqs.len(), 3);
        // Sorted by time, first at zero.
        assert_eq!(reqs[0].timestamp_ns, 0);
        assert!(reqs
            .windows(2)
            .all(|w| w[0].timestamp_ns <= w[1].timestamp_ns));
        assert_eq!(reqs[0].op, OpKind::Read);
        assert_eq!(reqs[0].offset, 383496192);
        assert_eq!(reqs[0].size, 32768);
        // Case-insensitive op parsing.
        assert_eq!(reqs[1].op, OpKind::Write);
        assert_eq!(reqs[1].size, 8192);
        // Tick conversion: 128166372016382155 − 128166372003061629 ticks.
        let delta_ticks = 128166372016382155u64 - 128166372003061629u64;
        assert_eq!(reqs[2].timestamp_ns, delta_ticks * 100);
    }

    #[test]
    fn header_is_optional() {
        let body = "128166372003061629,hm,0,Read,0,4096,1";
        let reqs = parse_msr_reader(body.as_bytes()).unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].timestamp_ns, 0);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_msr_line("not,a,trace", 1).is_err());
        assert!(parse_msr_line("1,h,0,Erase,0,4096,1", 1).is_err());
        assert!(parse_msr_line("1,h,0,Read,0,0,1", 1).is_err());
        assert!(parse_msr_line("x,h,0,Read,0,4096,1", 1).is_err());
        // A byte range running past u64::MAX is rejected; one ending
        // exactly at u64::MAX is not.
        let past = parse_msr_line("1,h,0,Write,18446744073709551615,4096,1", 3).unwrap_err();
        assert_eq!(past.line, 3);
        assert!(past.message.contains("overflows"), "{}", past.message);
        let last = parse_msr_line("1,h,0,Write,18446744073709547520,4095,1", 1).unwrap();
        assert_eq!(last.subpage_count(), 1);
        let err = parse_msr_line("1,h,0", 7).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.message.contains("Type"));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let body = "\n\n128166372003061629,hm,0,Read,0,4096,1\n\n";
        assert_eq!(parse_msr_reader(body.as_bytes()).unwrap().len(), 1);
    }
}
