//! `ipu-sim` — the command-line face of the IPU paper reproduction.
//!
//! Run `ipu-sim help` for the full usage text; typical invocations:
//!
//! ```text
//! cargo run --release -p ipu-cli -- figure 5 --scale 0.25
//! cargo run --release -p ipu-cli -- run --traces ts0 --schemes ipu
//! cargo run --release -p ipu-cli -- replay /data/msr/ts0.csv --schemes ipu
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use args::ParsedArgs;

/// Flags consumed by `config_from`, shared by every experiment command.
const CONFIG_FLAGS: &[&str] = &[
    "scale",
    "traces",
    "schemes",
    "pe",
    "threads",
    "fault-profile",
];

/// Flags/switches consumed by `cache_from` (replay-cache control).
const CACHE_FLAGS: &[&str] = &["cache-dir"];
const CACHE_SWITCHES: &[&str] = &["cache", "no-cache"];

/// The exact flag/switch grammar of one command. A flag a command would
/// silently ignore is *not* listed, so `ipu-sim tables --queue-depth 8`
/// fails loudly instead of running without the option. A form of a command
/// that takes fewer (`figure 2`, `figure 12`, `ablate levels`) rejects the
/// rest itself.
fn command_grammar(command: &str) -> Option<(Vec<&'static str>, Vec<&'static str>)> {
    let mut flags: Vec<&'static str> = CONFIG_FLAGS.to_vec();
    let mut switches: Vec<&'static str> = Vec::new();
    let with_cache = |flags: &mut Vec<&'static str>, switches: &mut Vec<&'static str>| {
        flags.extend_from_slice(CACHE_FLAGS);
        switches.extend_from_slice(CACHE_SWITCHES);
    };
    match command {
        // Tables 1 and 3 describe the traces; nothing is replayed.
        "tables" => flags = vec!["scale", "traces", "threads", "save"],
        "figure" | "sweep" | "scorecard" | "reliability" => {
            flags.push("save");
            with_cache(&mut flags, &mut switches);
        }
        "run" | "ablate" => with_cache(&mut flags, &mut switches),
        "figures" => {
            flags.push("out");
            with_cache(&mut flags, &mut switches);
        }
        "profile" => flags.extend_from_slice(&["out", "events"]),
        "simulate" => flags.extend_from_slice(&[
            "save",
            "queue-depth",
            "tenants",
            "arbitration",
            "dispatch-overhead",
            "split",
            "out",
        ]),
        "replay" => flags = vec!["schemes", "fault-profile"],
        "fleet" => {
            flags.extend_from_slice(&[
                "save",
                "devices",
                "policy",
                "queue-depth",
                "arbitration",
                "slo-p99-ms",
                "max-tenants",
                "tenants",
                "replication",
                "fault-plan",
                "faulty",
                "out",
                "from",
            ]);
            with_cache(&mut flags, &mut switches);
        }
        _ => return None,
    }
    Some((flags, switches))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" || raw[0] == "-h" {
        print!("{}", commands::USAGE);
        return;
    }

    let Some((flags, switches)) = command_grammar(&raw[0]) else {
        eprintln!("error: unknown command `{}`\n\n{}", raw[0], commands::USAGE);
        std::process::exit(2);
    };

    let parsed = match ParsedArgs::parse_with_switches(raw, &flags, &switches) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            std::process::exit(2);
        }
    };

    let result = match parsed.command.as_str() {
        "tables" => commands::cmd_tables(&parsed),
        "figure" => commands::cmd_figure(&parsed),
        "run" => commands::cmd_run(&parsed),
        "sweep" => commands::cmd_sweep(&parsed),
        "simulate" => commands::cmd_simulate(&parsed),
        "reliability" => commands::cmd_reliability(&parsed),
        "replay" => commands::cmd_replay(&parsed),
        "ablate" => commands::cmd_ablate(&parsed),
        "figures" => commands::cmd_figures(&parsed),
        "profile" => commands::cmd_profile(&parsed),
        "scorecard" => commands::cmd_scorecard(&parsed),
        "fleet" => commands::cmd_fleet(&parsed),
        other => {
            eprintln!("error: unknown command `{other}`\n\n{}", commands::USAGE);
            std::process::exit(2);
        }
    };

    match result {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    fn parse(cmdline: &str) -> Result<ParsedArgs, args::ArgError> {
        let cmd = cmdline.split_whitespace().next().unwrap();
        let (flags, switches) = command_grammar(cmd).expect("known command");
        ParsedArgs::parse_with_switches(argv(cmdline), &flags, &switches)
    }

    #[test]
    fn every_command_has_a_grammar() {
        for cmd in [
            "tables",
            "figure",
            "run",
            "sweep",
            "simulate",
            "reliability",
            "replay",
            "ablate",
            "figures",
            "profile",
            "scorecard",
            "fleet",
        ] {
            assert!(command_grammar(cmd).is_some(), "{cmd}");
        }
        assert!(command_grammar("bogus").is_none());
    }

    #[test]
    fn unknown_flags_error_instead_of_being_ignored() {
        // `tables` runs no QD sweep: a queue-depth flag must be rejected, not
        // silently dropped.
        let err = parse("tables --queue-depth 8").unwrap_err();
        assert!(err.0.contains("unknown flag --queue-depth"), "{err}");
        // Misspelled flags fail the same way on any command.
        assert!(parse("figure 5 --sclae 0.1").is_err());
        assert!(parse("profile --save out.json").is_err());
    }

    #[test]
    fn tables_rejects_replay_flags() {
        for flag in ["--schemes mga", "--pe 8000", "--fault-profile heavy"] {
            let err = parse(&format!("tables {flag}")).unwrap_err();
            let name = flag.split_whitespace().next().unwrap();
            assert!(err.0.contains(&format!("unknown flag {name}")), "{err}");
        }
    }

    #[test]
    fn per_command_flags_parse() {
        let p = parse("simulate --queue-depth 1,16 --tenants fg:4:0,bg:1:1").unwrap();
        assert_eq!(p.flag("tenants"), Some("fg:4:0,bg:1:1"));
        let p = parse("profile --out p.json --events e.jsonl --threads 1").unwrap();
        assert_eq!(p.flag("out"), Some("p.json"));
        let p = parse("figure 5 --cache --save m.json").unwrap();
        assert!(p.switch("cache"));
    }

    #[test]
    fn replay_accepts_only_its_own_flags() {
        let p = parse("replay trace.csv --schemes ipu --fault-profile light").unwrap();
        assert_eq!(p.positionals, vec!["trace.csv"]);
        assert!(parse("replay trace.csv --scale 0.5").is_err());
        assert!(parse("replay trace.csv --cache").is_err());
    }
}
