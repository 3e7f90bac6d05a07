//! The `bench` runner's command line: one flag parser, one usage text,
//! and the dispatch from a scenario name to its entry in
//! [`SCENARIOS`].
//!
//! Bad input — an unknown scenario or flag, a flag the scenario does not
//! take, a missing or unparsable value — exits 2 with the usage text. A
//! scenario that returns an error (an unwritable artifact) exits 1.

use crate::scenario::SCENARIOS;

/// A flag some scenario accepts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flag {
    /// `--smoke`: reduced axes for a quick run, same gates.
    Smoke,
    /// `--out PATH`: where to write the baseline JSON.
    Out,
    /// `--seeds N`: seeds per profile.
    Seeds,
    /// `--start N`: the first seed.
    Start,
    /// `--profile P`: restrict to one simtest profile.
    Profile,
}

impl Flag {
    const ALL: [Flag; 5] = [
        Flag::Smoke,
        Flag::Out,
        Flag::Seeds,
        Flag::Start,
        Flag::Profile,
    ];

    /// The flag as typed, its value placeholder, and what it does.
    fn spec(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Flag::Smoke => ("--smoke", "", "reduced axes for a quick run (same gates)"),
            Flag::Out => (
                "--out",
                " PATH",
                "baseline JSON (default BENCH_<scenario>.json)",
            ),
            Flag::Seeds => ("--seeds", " N", "seeds per profile (default 70)"),
            Flag::Start => ("--start", " N", "first seed (default 0)"),
            Flag::Profile => ("--profile", " P", "one explorer profile only"),
        }
    }
}

/// The parsed flags of one scenario run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// `--smoke` was given.
    pub smoke: bool,
    /// The baseline path: `--out`, else `BENCH_<scenario>.json`.
    pub out: String,
    /// `--seeds`, if given (it wins over `--smoke`'s seed count).
    pub seeds: Option<u64>,
    /// `--start`, default 0.
    pub start: u64,
    /// `--profile`, if given.
    pub profile: Option<String>,
}

/// One named scenario of the registry.
pub struct Scenario {
    /// The name `bench <name>` runs it by.
    pub name: &'static str,
    /// One line for `bench list` and the usage text.
    pub about: &'static str,
    /// The flags it accepts; any other flag is refused.
    pub flags: &'static [Flag],
    /// Runs the scenario; an `Err` says why it failed (an artifact that
    /// could not be written, or failing explore runs).
    pub run: fn(&Args) -> Result<(), String>,
}

/// Parse `argv` (the words after the scenario name) against the flags
/// `scenario` accepts.
pub fn parse(scenario: &Scenario, argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        out: format!("BENCH_{}.json", scenario.name),
        ..Args::default()
    };
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        let flag = Flag::ALL
            .into_iter()
            .find(|f| f.spec().0 == word)
            .ok_or_else(|| format!("unknown flag: {word}"))?;
        if !scenario.flags.contains(&flag) {
            return Err(format!("{} does not take {word}", scenario.name));
        }
        let mut value = || words.next().ok_or_else(|| format!("{word} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{word} takes a number, got {v:?}"))
        };
        match flag {
            Flag::Smoke => args.smoke = true,
            Flag::Out => args.out = value()?.clone(),
            Flag::Seeds => args.seeds = Some(number(value()?)?),
            Flag::Start => args.start = number(value()?)?,
            Flag::Profile => args.profile = Some(op_mix(value()?)?),
        }
    }
    Ok(args)
}

/// `name` if it names one of simtest's op-mix profiles.
fn op_mix(name: &str) -> Result<String, String> {
    let names: Vec<&str> = simtest::profiles().iter().map(|p| p.name).collect();
    if names.contains(&name) {
        Ok(name.to_string())
    } else {
        Err(format!(
            "no such profile: {name}; choose from: {}",
            names.join(", ")
        ))
    }
}

/// The usage text: every scenario with its flags, then what each flag means.
pub fn usage() -> String {
    let mut u = String::from("usage: bench <scenario> [flags]\n       bench list\n\nscenarios:\n");
    for s in &SCENARIOS {
        u += &format!("  {:<12} {}\n", s.name, s.about);
        if !s.flags.is_empty() {
            let flags: Vec<String> = s
                .flags
                .iter()
                .map(|f| format!("[{}{}]", f.spec().0, f.spec().1))
                .collect();
            u += &format!("  {:<12} {}\n", "", flags.join(" "));
        }
    }
    u += "\nflags:\n";
    for f in Flag::ALL {
        let (name, value, help) = f.spec();
        u += &format!("  {:<12} {help}\n", format!("{name}{value}"));
    }
    u
}

/// Run `bench` on `argv` (without the program name); returns the exit code.
pub fn main(argv: &[String]) -> i32 {
    let bad_input = |msg: String| {
        eprintln!("bench: {msg}\n\n{}", usage());
        2
    };
    match argv.first().map(String::as_str) {
        None => bad_input("no scenario given".into()),
        Some("list") if argv.len() == 1 => {
            for s in &SCENARIOS {
                println!("{:<12} {}", s.name, s.about);
            }
            0
        }
        Some(name) => {
            let Some(scenario) = SCENARIOS.iter().find(|s| s.name == name) else {
                return bad_input(format!("unknown scenario: {name}"));
            };
            match parse(scenario, &argv[1..]) {
                Err(e) => bad_input(e),
                Ok(args) => match (scenario.run)(&args) {
                    Ok(()) => 0,
                    Err(e) => {
                        eprintln!("bench {name}: {e}");
                        1
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(name: &str) -> &'static Scenario {
        SCENARIOS
            .iter()
            .find(|s| s.name == name)
            .expect("registered")
    }

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn registry_holds_each_scenario_once() {
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        assert_eq!(
            names.join(" "),
            "table1 fig6 fig7 table2 overload ablation timeline core tenantstorm crashstorm \
             churnstorm pinscale explore"
        );
    }

    #[test]
    fn defaults_and_flags() {
        let a = parse(scenario("core"), &[]).unwrap();
        assert_eq!(a.out, "BENCH_core.json");
        assert!(!a.smoke);
        let a = parse(scenario("pinscale"), &words("--smoke --out x.json")).unwrap();
        assert!(a.smoke);
        assert_eq!(a.out, "x.json");
        let a = parse(
            scenario("explore"),
            &words("--seeds 3 --start 9 --profile churn"),
        )
        .unwrap();
        assert_eq!(
            (a.seeds, a.start, a.profile.as_deref()),
            (Some(3), 9, Some("churn"))
        );
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let err = |s: &str, argv: &str| parse(scenario(s), &words(argv)).unwrap_err();
        assert_eq!(err("core", "--out"), "--out needs a value");
        assert_eq!(
            err("explore", "--seeds x"),
            "--seeds takes a number, got \"x\""
        );
        assert_eq!(err("explore", "--seeds"), "--seeds needs a value");
        assert_eq!(err("core", "--bogus"), "unknown flag: --bogus");
        assert_eq!(err("fig6", "--smoke"), "fig6 does not take --smoke");
        assert_eq!(
            err("explore", "--max-retries 8"),
            "unknown flag: --max-retries"
        );
        assert_eq!(err("explore", "--shrink 10"), "unknown flag: --shrink");
        assert!(err("explore", "--profile nope").starts_with("no such profile: nope; "));
    }

    #[test]
    fn exit_codes() {
        assert_eq!(main(&[]), 2);
        assert_eq!(main(&words("nosuch")), 2);
        assert_eq!(main(&words("core --out")), 2);
        assert_eq!(main(&words("list")), 0);
        assert!(usage().contains("churnstorm"));
    }

    #[test]
    fn unwritable_baseline_fails_the_scenario_with_exit_1() {
        let argv = words("churnstorm --smoke --out no-such-dir/BENCH_churnstorm.json");
        let args = parse(scenario("churnstorm"), &argv[1..]).unwrap();
        let err = (scenario("churnstorm").run)(&args).unwrap_err();
        assert!(
            err.starts_with("cannot write no-such-dir/BENCH_churnstorm.json: "),
            "{err}"
        );
        assert_eq!(main(&argv), 1);
    }
}
