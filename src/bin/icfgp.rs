//! The `icfgp` command-line driver: generate, analyse, rewrite and run
//! binaries of the synthetic object format (serialised with serde/JSON).
//!
//! ```console
//! $ icfgp gen --workload spec:602.gcc_s --arch x86-64 -o gcc.icfgp
//! $ icfgp analyze gcc.icfgp
//! $ icfgp rewrite gcc.icfgp --mode jt -o gcc.rw.icfgp
//! $ icfgp verify gcc.icfgp --mode jt
//! $ icfgp run gcc.rw.icfgp --preload-runtime
//! ```

use incremental_cfg_patching::audit::{render_text, to_sarif};
use incremental_cfg_patching::chaos::{parse_floor, run_campaign, CampaignConfig, FaultAxis};
use incremental_cfg_patching::cfg::{analyze, AnalysisConfig, FuncStatus};
use incremental_cfg_patching::core::{
    apply_audit_gate, audit_mode_of, parse_store_url, pool, serve, store, trace, CacheStore,
    CorruptKind, FaultPlan, Instrumentation, Points, RemoteOptions, RemoteStore, RewriteCache,
    RewriteConfig, RewriteMode, ServeOptions, SpanKind, StoreBackend, Trace, UnwindStrategy,
};
use incremental_cfg_patching::emu::{run, LoadOptions, Outcome};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::obj::Binary;
use incremental_cfg_patching::verify::{rewrite_with_ladder_cached, LadderOutcome};
use incremental_cfg_patching::workloads::{
    docker_like, driverlib_like, firefox_like, generate, spec_params, switch_demo, GenParams,
    SPEC_NAMES,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, OnceLock};

/// The first failed stdout write; `main` exits 3 with it.
static STDOUT_ERROR: OnceLock<String> = OnceLock::new();

/// Every stdout write goes through here, so a closed pipe ends the
/// command inside the exit contract instead of panicking. After the
/// first failure the rest of the output is dropped.
fn write_stdout(args: std::fmt::Arguments) {
    if STDOUT_ERROR.get().is_some() {
        return;
    }
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(args).and_then(|()| out.flush()) {
        let _ = STDOUT_ERROR.set(format!("writing stdout: {e}"));
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => { write_stdout(format_args!("\n")) };
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

fn usage() -> ExitCode {
    eprintln!(
        "icfgp — incremental CFG patching driver

USAGE:
  icfgp gen --workload <spec:NAME|small|firefox|docker|driverlib|switch_demo>
            [--arch A] [--pie] [--seed N] [--perturb N] -o FILE
  icfgp analyze FILE
  icfgp audit FILE [--mode <dir|jt|func-ptr>] [--format <text|json|sarif>]
                   [--fault-seed N] [--intensity I] [--cache-dir DIR]
  icfgp rewrite FILE --mode <dir|jt|func-ptr> [--unwind <ra|emulate|none>]
                     [--no-poison] [--points <blocks|entries|none>]
                     [--fault-seed N] [--intensity <none|quiet|standard|aggressive>]
                     [--floor <dir|jt|func-ptr|trap-only|skip>] [--budget FRAC]
                     [--audit-gate] [--cache-dir DIR] [--stats] [--trace FILE]
                     [--quiet] [--func-timeout-ms N] -o FILE
  icfgp verify FILE [--mode <dir|jt|func-ptr>] [--unwind <ra|emulate|none>]
                    [--no-poison] [--points <blocks|entries|none>]
                    [--fault-seed N] [--intensity I] [--floor F] [--budget FRAC]
                    [--cache-dir DIR] [--trace FILE] [--json]
  icfgp fleet FILES... [--cache-dir DIR] [--trace FILE] [--quiet]
              [rewrite options]
  icfgp run FILE [--preload-runtime] [--bias HEX] [--fuel N]
  icfgp chaos [--seeds N] [--workloads A,B] [--arch A] [--mode M]
              [--intensity I] [--floor F] [--budget FRAC] [--cache-dir DIR]
              [--kill-resume] [--net] [--trace FILE] [--quiet] [--json]
  icfgp cache <stats|verify|clear|compact> --cache-dir DIR [--trace FILE]
  icfgp cache stats --store-url icfgp://HOST:PORT
  icfgp cache serve HOST:PORT --cache-dir DIR
  icfgp cache corrupt --cache-dir DIR --kind <bit-flip|truncate|stale-version> [--seed N]
  icfgp trace summarize FILE
  icfgp trace diff A B
  icfgp list-workloads

`audit` runs the whole-binary static soundness audit (lint codes
ICFGP-A001..A010, severity proven < over-approx < under-approx-risk <
unknown) without rewriting; `--format sarif` emits SARIF 2.1.0. Exit
codes: 0 clean, 1 findings, 64 usage.

`rewrite` and `verify` run the degradation ladder: on per-function
verification failure the function steps down func-ptr → jt → dir →
trap-only → skip until the rewrite verifies with zero errors.
`--audit-gate` runs the audit first and starts each function at the
statically justified rung, cutting demotion rounds. `cache compact`
rewrites a store directory into a single fresh segment, dropping
superseded and quarantined records.
`rewrite --stats` prints per-round cache hit/miss counters, stage
timings and the five slowest functions; `ICFGP_THREADS=N` overrides
the worker-pool width (output bytes are identical for any N; invalid
values are rejected with exit code 64, as are non-integer
`ICFGP_FUNC_TIMEOUT_MS` values).

`--trace FILE` (or `ICFGP_TRACE`) records the structured event spine
— spans (run, rewrite, analysis rounds, store flushes), cache
lookups, demotions, retries, breaker trips — as
newline-delimited JSON. The stream is sealed into a deterministic
address-ordered form: bytes are identical for any
`ICFGP_THREADS`, and rewriting output is identical with tracing on or
off. `icfgp trace summarize FILE` folds a recorded stream back
through the metrics registry (top spans, per-stage cache histogram,
counter totals) and exits 1 if the store conservation laws
(`hits + misses + quarantines == lookups`) are violated; `icfgp
trace diff A B` prints per-counter deltas between two streams (warm
vs cold, for instance). `--quiet`/`-q` on `rewrite`, `fleet` and
`chaos` suppresses non-error stdout — exit codes stay the contract.

`--func-timeout-ms N` (or `ICFGP_FUNC_TIMEOUT_MS`) arms the
per-function watchdog: a function whose analysis overruns the budget
is skipped with a typed Budget failure and degrades through the
ladder instead of hanging the run.

With a store attached (`--cache-dir` or `--store-url`), each ladder
round that demotes is stored with the round's results. After a crash
or kill, rerunning the same command over the same store is the resume:
it replays the stored rounds, redoes only the unfinished ones and
produces byte-identical output. A rerun of a finished run replays all
but the final round. A run without a store recomputes everything.
`--fault-seed` injects analysis and placement faults only; the user's
store, wire and cache read-back stay undamaged. `chaos` injects store,
wire and read-back faults.

`chaos` sweeps workloads × arches × modes × seeds over one fault
axis. By default each seed's fault plan hits the analyses, and every
case must end in a verified rewrite that emulates identically.
`--kill-resume` kills every round boundary of each case, with and
without the seed's store I/O faults, reruns it over the same store, and
checks that the rerun is byte-identical and redoes strictly less work
(no more, when an injected store fault destroyed what the kill left).
`--net` sweeps network faults (delays, drops, torn and bit-flipped
replies, server kill mid-PUT) against a live in-process store server:
output bytes must match a cold run, every lookup must be accounted
exactly once, and a second fault-free client against the warm server
must miss strictly less than the first. On those two axes
`--cache-dir` is a scratch root whose case subdirectories are cleared
before use. `--seeds 0` and `--kill-resume --net` are usage errors.

`fleet` rewrites a batch of near-identical binaries over one shared
warm cache store: fragment entries (with their canonical emitted
code) are keyed position-independently (no layout base, no whole-binary fingerprint),
so work done on the first binary is reused by the rest. Each FILE is
written to FILE.rw; per-stage hit rates and the `shared` counter
(hits first computed for a *different* binary) are printed per binary
and in aggregate. `gen --perturb N` generates a near-identical
variant (a few filler functions renamed/reordered) for fleet
experiments.

`--cache-dir DIR` (or `ICFGP_CACHE_DIR`) attaches a crash-safe
persistent rewrite cache: entries are warmed from DIR on start and
flushed back on exit. Corrupt or unreadable records are quarantined
and recomputed — output bytes are identical to a cold run. `icfgp
cache verify` integrity-checks every record; `corrupt` deliberately
damages a store for testing.

`--store-url icfgp://HOST:PORT` (or `ICFGP_STORE_URL`) attaches a
remote cache served by `icfgp cache serve`: lookups and flushes go
over a length-prefixed checksummed TCP protocol, any number of clients
write at once (the server queues their records and flushes them under
the same directory lock as a local store), and transient faults are
retried with bounded jittered backoff. When the server stays
unreachable or lying, a circuit breaker trips and the rest of the run
misses and persists nothing — a dead server only ever costs cache
misses, never wrong bytes or a hung run. A malformed URL is a usage
error (exit 64), and so is naming two stores: a store URL together
with `--cache-dir`/`ICFGP_CACHE_DIR` for rewrite, verify, fleet or
audit. `icfgp cache stats --store-url U` queries a live server.

EXIT CODES: 0 clean, 1 degraded within budget, 2 budget exceeded
(chaos: any case failed), 3 internal error, 64 usage (a flag the
command does not accept, a value outside a flag's accepted set and a
number that does not parse included).

Architectures: x86-64 (default), ppc64le, aarch64."
    );
    ExitCode::from(64)
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The number `flag` carries, `None` when the flag is absent. A value
/// that does not parse is a usage error naming the flag.
fn number<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, Failure> {
    arg_value(args, flag)
        .map(|v| {
            v.parse().map_err(|_| Failure::Usage(format!("bad {flag} {v} (expected a number)")))
        })
        .transpose()
}

/// The options the ladder commands (`rewrite`, `verify`, `fleet`,
/// `audit`) share through [`parse_rewrite_config`] and [`run_command`].
/// A trailing `=` marks a flag that takes a value.
const LADDER_FLAGS: [&str; 13] = [
    "--mode=", "--unwind=", "--points=", "--fault-seed=", "--intensity=", "--floor=", "--budget=",
    "--func-timeout-ms=", "--cache-dir=", "--store-url=", "--trace=", "--no-poison", "--audit-gate",
];

/// Every flag `cmd` accepts (a trailing `=` marks one that takes a
/// value); `None` for an unknown command.
fn accepted_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let own: &[&str] = match cmd {
        "gen" => &["--workload=", "--arch=", "--pie", "--seed=", "--perturb=", "-o="],
        "rewrite" => &["-o=", "--stats", "--quiet", "-q"],
        "verify" => &["--json"],
        "fleet" => &["--quiet", "-q"],
        "audit" => &["--format="],
        "run" => &["--preload-runtime", "--bias=", "--fuel="],
        "chaos" => &[
            "--seeds=", "--workloads=", "--arch=", "--mode=", "--intensity=", "--floor=",
            "--budget=", "--cache-dir=", "--trace=", "--kill-resume", "--net", "--quiet", "-q",
            "--json",
        ],
        "cache" => &["--cache-dir=", "--store-url=", "--trace=", "--kind=", "--seed="],
        "analyze" | "trace" | "list-workloads" => &[],
        _ => return None,
    };
    let ladder = matches!(cmd, "rewrite" | "verify" | "fleet" | "audit");
    Some(if ladder { [&LADDER_FLAGS[..], own].concat() } else { own.to_vec() })
}

/// Refuse, before the command loads or writes anything, any flag that
/// `cmd` does not accept: a misspelt flag is a usage error, not an
/// option silently left at its default.
fn check_flags(cmd: &str, args: &[String]) -> Result<(), Failure> {
    let Some(accepted) = accepted_flags(cmd) else { return Ok(()) };
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if !a.starts_with('-') || accepted.contains(&a.as_str()) {
            continue;
        }
        if !accepted.iter().any(|f| f.strip_suffix('=') == Some(a.as_str())) {
            return Err(Failure::Usage(format!("unknown flag {a} for `icfgp {cmd}`")));
        }
        args.next(); // the flag's value
    }
    Ok(())
}

/// The persistent-store directory: `--cache-dir DIR` wins, then the
/// `ICFGP_CACHE_DIR` environment variable, else no store.
fn cache_dir(args: &[String]) -> Option<PathBuf> {
    arg_value(args, "--cache-dir")
        .or_else(|| std::env::var("ICFGP_CACHE_DIR").ok())
        .filter(|s| !s.trim().is_empty())
        .map(PathBuf::from)
}

/// The remote-store URL: `--store-url URL` wins, then the
/// `ICFGP_STORE_URL` environment variable, else no remote store. The
/// value is validated up front in `main` (exit 64 on garbage).
fn store_url(args: &[String]) -> Option<String> {
    arg_value(args, "--store-url")
        .or_else(|| std::env::var("ICFGP_STORE_URL").ok())
        .filter(|s| !s.trim().is_empty())
}

/// The structured-trace output file: `--trace FILE` wins, then the
/// `ICFGP_TRACE` environment variable, else the spine stays
/// counting-only (no stream buffer).
fn trace_path(args: &[String]) -> Option<PathBuf> {
    arg_value(args, "--trace")
        .or_else(|| std::env::var("ICFGP_TRACE").ok())
        .filter(|s| !s.trim().is_empty())
        .map(PathBuf::from)
}

/// `--quiet`/`-q`: suppress non-error stdout. Exit codes are the
/// contract; errors and store events still go to stderr.
fn is_quiet(args: &[String]) -> bool {
    has_flag(args, "--quiet") || has_flag(args, "-q")
}

/// Seal the recorded stream and write it as JSONL to `path`.
fn write_trace(trace: &Trace, path: &std::path::Path) -> Result<(), String> {
    let f = std::fs::File::create(path)
        .map_err(|e| format!("trace {}: {e}", path.display()))?;
    trace
        .write_jsonl(std::io::BufWriter::new(f))
        .map_err(|e| format!("trace {}: {e}", path.display()))
}

/// Build the rewrite cache for a command: attached to the remote store
/// when a store URL is configured, to the persistent local store when a
/// cache dir is, plain in-memory otherwise. A cache has one store, so
/// configuring both is a usage error.
fn open_cache(args: &[String]) -> Result<RewriteCache, Failure> {
    let store: Arc<dyn StoreBackend> = match (store_url(args), cache_dir(args)) {
        (Some(_), Some(_)) => {
            return Err(Failure::Usage(
                "a run has one store: give a store URL (--store-url or ICFGP_STORE_URL) \
                 or a cache dir (--cache-dir or ICFGP_CACHE_DIR), not both"
                    .into(),
            ))
        }
        // Already validated in `main`.
        (Some(raw), None) => Arc::new(RemoteStore::connect(
            &parse_store_url(&raw).expect("store url validated at startup"),
            RemoteOptions::default(),
        )),
        (None, Some(dir)) => Arc::new(CacheStore::open(&dir)),
        (None, None) => return Ok(RewriteCache::new()),
    };
    for e in store.events() {
        eprintln!("cache-store: {e}");
    }
    Ok(RewriteCache::with_backend(store))
}

/// Flush the attached store (if any) and report what was persisted
/// plus any integrity events the run produced. `quiet` suppresses the
/// stdout summary (JSON output modes); events still go to stderr.
fn finish_cache(cache: &RewriteCache, quiet: bool) {
    let Some(store) = cache.store() else { return };
    let seen: usize = store.events().len();
    let flushed = cache.flush_store();
    for e in store.events().iter().skip(seen) {
        eprintln!("cache-store: {e}");
    }
    if quiet {
        return;
    }
    let s = store.stats();
    outln!(
        "  cache store: {} — {} hit / {} miss persisted, {} record(s) flushed, \
         {} quarantined",
        store.describe(),
        s.hits,
        s.misses,
        flushed,
        s.quarantined_records + s.quarantined_segments,
    );
    if s.remote_hits + s.remote_misses + s.breaker_trips + s.degraded > 0 {
        outln!(
            "  remote     : {} hit / {} miss, {} retries, {} breaker trip(s), \
             {} degraded lookup(s)",
            s.remote_hits, s.remote_misses, s.retries, s.breaker_trips, s.degraded,
        );
    }
}

/// The run scaffold of the ladder commands (`rewrite`, `verify`,
/// `fleet`, `audit`): open the command's cache, record the trace when
/// `--trace`/`ICFGP_TRACE` asks, run `body` inside the `Run` span, then
/// flush and report the store (`quiet` drops the stdout summary) and
/// write the trace (`announce` prints its path). Returns the body's
/// value and the cache.
fn run_command<T>(
    args: &[String],
    quiet: bool,
    announce: bool,
    body: impl FnOnce(&RewriteCache) -> Result<T, Failure>,
) -> Result<(T, RewriteCache), Failure> {
    let cache = open_cache(args)?;
    let tpath = trace_path(args);
    let spine = cache.trace();
    let run_span = tpath.as_ref().map(|_| {
        spine.record();
        spine.span(SpanKind::Run)
    });
    let value = body(&cache)?;
    finish_cache(&cache, quiet);
    if let Some(s) = run_span {
        s.close();
    }
    if let Some(p) = &tpath {
        write_trace(&spine, p)?;
        if announce {
            outln!("  trace      : {}", p.display());
        }
    }
    Ok((value, cache))
}

/// Why a command failed: a usage error exits 64, anything else 3.
enum Failure {
    /// A flag value the command does not accept.
    Usage(String),
    /// Any other error.
    Internal(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Internal(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Failure {
        Failure::Internal(e.to_string())
    }
}

/// The accepted values of each enumerated flag.
const MODES: [(&str, RewriteMode); 3] =
    [("dir", RewriteMode::Dir), ("jt", RewriteMode::Jt), ("func-ptr", RewriteMode::FuncPtr)];
const UNWINDS: [(&str, UnwindStrategy); 3] = [
    ("ra", UnwindStrategy::RaTranslation),
    ("emulate", UnwindStrategy::CallEmulation),
    ("none", UnwindStrategy::None),
];
const POINTS: [(&str, Points); 3] =
    [("blocks", Points::EveryBlock), ("entries", Points::FunctionEntries), ("none", Points::None)];
const ARCHES: [(&str, Arch); 3] =
    [("x86-64", Arch::X64), ("ppc64le", Arch::Ppc64le), ("aarch64", Arch::Aarch64)];

/// The value of `flag` among `choices`, `None` when the flag is
/// absent. Any other value is a usage error naming the accepted ones.
fn choice<T: Clone>(
    args: &[String],
    flag: &str,
    choices: &[(&str, T)],
) -> Result<Option<T>, Failure> {
    let Some(value) = arg_value(args, flag) else { return Ok(None) };
    match choices.iter().find(|(name, _)| *name == value) {
        Some((_, v)) => Ok(Some(v.clone())),
        None => {
            let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
            Err(Failure::Usage(format!("unknown {flag} {value} (expected {})", names.join("|"))))
        }
    }
}

fn load_binary(path: &str) -> Result<Binary, String> {
    let data = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let binary: Binary =
        serde_json::from_slice(&data).map_err(|e| format!("parsing {path}: {e}"))?;
    binary.validate_symbol_order().map_err(|e| format!("{path}: {e}"))?;
    binary.validate_layout().map_err(|e| format!("{path}: {e}"))?;
    binary.validate_symbols().map_err(|e| format!("{path}: {e}"))?;
    Ok(binary)
}

fn save_binary(binary: &Binary, path: &str) -> Result<(), String> {
    let data = serde_json::to_vec(binary).map_err(|e| e.to_string())?;
    std::fs::write(path, data).map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_gen(args: &[String]) -> Result<u8, Failure> {
    let arch = choice(args, "--arch", &ARCHES)?.unwrap_or(Arch::X64);
    let pie = has_flag(args, "--pie");
    let seed = number(args, "--seed")?.unwrap_or(1);
    let perturb: u64 = number(args, "--perturb")?.unwrap_or(0);
    let out = arg_value(args, "-o").ok_or("missing -o FILE")?;
    let spec = arg_value(args, "--workload").unwrap_or_else(|| "small".to_string());
    let workload = if let Some(name) = spec.strip_prefix("spec:") {
        let name = SPEC_NAMES
            .iter()
            .find(|n| **n == name)
            .ok_or_else(|| format!("unknown benchmark {name}; try `icfgp list-workloads`"))?;
        let mut p = spec_params(name, arch, pie);
        p.perturb = perturb;
        generate(&p)
    } else {
        match spec.as_str() {
            "small" => {
                let mut p = GenParams::small("cli", arch, seed);
                p.pie = pie;
                p.perturb = perturb;
                // Perturbation moves filler functions; when the flag
                // is given (even `--perturb 0`, the pristine fleet
                // base), give the small workload some to move so the
                // variants differ only in fillers.
                if has_flag(args, "--perturb") && p.filler_funcs == 0 {
                    p.filler_funcs = 8;
                }
                generate(&p)
            }
            "firefox" => firefox_like(arch, 1),
            "docker" => docker_like(arch, seed, 100),
            "driverlib" => driverlib_like(arch, 400, 30).0,
            "switch_demo" | "switch-demo" => switch_demo(arch, pie),
            other => return Err(format!("unknown workload {other}").into()),
        }
    };
    save_binary(&workload.binary, &out)?;
    outln!(
        "{}: {} functions, {} bytes loaded, arch {arch}, pie {pie} -> {out}",
        workload.name,
        workload.binary.functions().count(),
        workload.binary.loaded_size()
    );
    Ok(0)
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing FILE")?;
    let binary = load_binary(path)?;
    let a = analyze(&binary, &AnalysisConfig::default());
    let funcs = a.funcs.len();
    let ok = a.funcs.values().filter(|f| f.status == FuncStatus::Ok).count();
    let blocks: usize = a.funcs.values().map(|f| f.blocks.len()).sum();
    let tables: usize = a.funcs.values().map(|f| f.jump_tables.len()).sum();
    let tailcalls: usize = a.funcs.values().map(|f| f.indirect_tailcalls.len()).sum();
    outln!("{path}: {} ({})", binary.arch, if binary.meta.pie { "PIE" } else { "no-PIE" });
    outln!("  functions        : {funcs} ({ok} analysable, {:.2}% coverage)", a.coverage() * 100.0);
    outln!("  basic blocks     : {blocks}");
    outln!("  jump tables      : {tables}");
    outln!("  indirect tailcalls (heuristic): {tailcalls}");
    outln!("  function-pointer defs: {}", a.fp_defs.len());
    for f in a.funcs.values().filter(|f| f.status != FuncStatus::Ok) {
        outln!("  FAILED {}: {:?}", if f.name.is_empty() { "<stripped>" } else { &f.name }, f.status);
    }
    Ok(())
}

/// Parse the rewrite options shared by `rewrite`, `verify`, `fleet`
/// and `audit`.
fn parse_rewrite_config(args: &[String]) -> Result<(RewriteConfig, Points), Failure> {
    let mut config = RewriteConfig::new(choice(args, "--mode", &MODES)?.unwrap_or(RewriteMode::Jt));
    if let Some(unwind) = choice(args, "--unwind", &UNWINDS)? {
        config.unwind = unwind;
    }
    if has_flag(args, "--no-poison") {
        config.poison_text = false;
    }
    if let Some(seed) = number(args, "--fault-seed")? {
        let intensity =
            arg_value(args, "--intensity").unwrap_or_else(|| "standard".to_string());
        config.fault_plan = Some(
            FaultPlan::named(&intensity, seed)
                .ok_or_else(|| Failure::Usage(format!("unknown --intensity {intensity}")))?,
        );
    }
    if let Some(floor) = arg_value(args, "--floor") {
        config.degradation.floor = parse_floor(&floor).map_err(Failure::Usage)?;
    }
    if let Some(budget) = number(args, "--budget")? {
        config.degradation.max_below_floor = budget;
    }
    if has_flag(args, "--audit-gate") {
        config.audit_gate = true;
    }
    // Watchdog: the flag wins, then ICFGP_FUNC_TIMEOUT_MS (validated
    // at startup), else the work-unit ledger alone bounds analysis.
    config.analysis.func_timeout_ms = match number(args, "--func-timeout-ms")? {
        Some(ms) => Some(ms),
        None => store::env_millis(
            "ICFGP_FUNC_TIMEOUT_MS",
            std::env::var("ICFGP_FUNC_TIMEOUT_MS").ok().as_deref(),
        )
        .unwrap_or(None),
    };
    let points = choice(args, "--points", &POINTS)?.unwrap_or(Points::EveryBlock);
    Ok((config, points))
}

/// Run the degradation ladder and print the per-function dispositions.
/// Returns the ladder outcome plus the process exit code under the
/// 0/1/2 contract.
fn run_ladder(
    binary: &Binary,
    config: &RewriteConfig,
    points: Points,
    cache: &RewriteCache,
) -> Result<(LadderOutcome, u8), String> {
    let ladder =
        rewrite_with_ladder_cached(binary, config, &Instrumentation::empty(points), cache)
            .map_err(|e| e.to_string())?;
    let code = if ladder.budget_exceeded {
        2
    } else if ladder.fully_clean() {
        0
    } else {
        1
    };
    Ok((ladder, code))
}

fn print_dispositions(ladder: &LadderOutcome) {
    for d in ladder.degraded() {
        let why = d
            .steps
            .last()
            .map_or_else(
                || {
                    d.failure
                        .as_ref()
                        .map_or_else(|| "demoted".to_string(), |f| f.to_string())
                },
                |s| s.reason.clone(),
            );
        outln!("  degraded {:#x}: {} -> {} ({why})", d.entry, d.requested, d.achieved);
    }
    outln!(
        "  ladder     : {} round(s), {} function(s), {} degraded, {} below floor{}",
        ladder.rounds,
        ladder.dispositions.len(),
        ladder.degraded().count(),
        ladder.below_floor,
        if ladder.budget_exceeded { " — BUDGET EXCEEDED" } else { "" }
    );
}

/// Print the per-round incremental-engine counters (`rewrite --stats`).
/// The text itself is a registry projection rendered by
/// [`trace::render_stats_text`]; the `shared` counter distinguishes
/// weak-key hits first computed for a *different* binary.
fn print_stats(round_stats: &[incremental_cfg_patching::core::RewriteStats]) {
    out!("{}", trace::render_stats_text(round_stats));
}

/// Print the predictive-gate summary a gated ladder run carries.
fn print_gate(ladder: &LadderOutcome) {
    let Some(gate) = &ladder.gate else { return };
    outln!(
        "  audit gate : {} — {} function(s) pre-gated{}",
        gate.counts,
        gate.gated.len(),
        if gate.cache_hit { " (report cached)" } else { "" }
    );
}

/// `icfgp audit FILE` — run the static soundness audit and report
/// findings without rewriting. Exit 0 clean, 1 findings, 64 usage.
fn cmd_audit(args: &[String]) -> Result<u8, Failure> {
    let Some(path) = args.first() else {
        eprintln!("error: missing FILE (icfgp audit FILE [--mode M] [--format text|json|sarif])");
        return Ok(64);
    };
    let format = arg_value(args, "--format").unwrap_or_else(|| "text".to_string());
    if !matches!(format.as_str(), "text" | "json" | "sarif") {
        eprintln!("error: unknown --format {format} (expected text|json|sarif)");
        return Ok(64);
    }
    let binary = load_binary(path)?;
    let (config, _) = parse_rewrite_config(args)?;
    let mode = audit_mode_of(config.mode);
    run_command(args, format != "text", false, |cache| {
        let mut cfg = config;
        if let Some(plan) = cfg.fault_plan.clone() {
            // Audit the same faulted analysis a rewrite would see.
            plan.arm_cached(&binary, &mut cfg, cache);
        }
        // The gate path memoises the report through the cache (and its
        // persistent store); the installed func modes are discarded.
        let summary = apply_audit_gate(&binary, &mut cfg, cache);
        let report = &summary.report;
        match format.as_str() {
            "json" => outln!("{}", report.to_json().map_err(|e| e.to_string())?),
            "sarif" => outln!("{}", to_sarif(report, mode, path)),
            _ => {
                out!("{}", render_text(report, mode));
                if summary.cache_hit {
                    outln!("  (report served from cache)");
                }
            }
        }
        Ok(u8::from(!report.is_clean(mode)))
    })
    .map(|(code, _)| code)
}

fn cmd_rewrite(args: &[String]) -> Result<u8, Failure> {
    let path = args.first().ok_or("missing FILE")?;
    let out = arg_value(args, "-o").ok_or("missing -o FILE")?;
    let binary = load_binary(path)?;
    let (config, points) = parse_rewrite_config(args)?;
    let mode = config.mode;
    let quiet = is_quiet(args);
    let ((ladder, code), cache) = run_command(args, quiet, !quiet, |cache| {
        let (ladder, code) = run_ladder(&binary, &config, points, cache)?;
        save_binary(&ladder.outcome.binary, &out)?;
        if !quiet {
            let r = &ladder.outcome.report;
            outln!("rewrote {path} -> {out} ({mode} mode)");
            outln!("  coverage   : {:.2}%", r.coverage * 100.0);
            outln!(
                "  trampolines: {} ({} short, {} long, {} multi-hop, {} trap)",
                r.trampolines(),
                r.tramp_short,
                r.tramp_long,
                r.tramp_multi_hop,
                r.tramp_trap
            );
            outln!("  cloned jump tables: {}", r.cloned_tables);
            outln!("  ra-map entries    : {}", r.ra_map_entries);
            outln!("  size       : {} -> {} (+{:.2}%)", r.original_size, r.rewritten_size,
                r.size_increase() * 100.0);
            outln!(
                "  verify     : {} error(s), {} warning(s) over {} trampolines, {} patches, {} clones",
                ladder.verify.errors().count(),
                ladder.verify.warnings().count(),
                ladder.verify.trampolines_checked,
                ladder.verify.patches_checked,
                ladder.verify.clones_checked
            );
            print_dispositions(&ladder);
            print_gate(&ladder);
            if ladder.resumed_rounds > 0 {
                outln!(
                    "  resumed    : {} stored round(s) replayed, {} executed",
                    ladder.resumed_rounds,
                    ladder.rounds - ladder.resumed_rounds
                );
            }
            if has_flag(args, "--stats") {
                print_stats(&ladder.round_stats);
            }
        }
        Ok((ladder, code))
    })?;
    // The process exits right after this. Freeing the ladder outcome,
    // the input and every cached stage record would cost tens of
    // milliseconds on a large binary and do nothing the exit does not.
    // A store's `Drop` only flushes, so flush here (a no-op when
    // nothing is pending) and skip the teardown.
    cache.flush_store();
    std::mem::forget(ladder);
    std::mem::forget(binary);
    std::mem::forget(cache);
    Ok(code)
}

/// `icfgp fleet FILES... [--cache-dir DIR]` — rewrite a batch of
/// binaries over one shared warm store. Every FILE is rewritten to
/// FILE.rw through the same cache (and persistent store when
/// configured), so position-independent fragment entries
/// computed for the first binary serve the rest; per-stage hit rates
/// and cross-binary `shared` counts are reported per binary and in
/// aggregate. Exit code is the worst per-binary ladder code.
fn cmd_fleet(args: &[String]) -> Result<u8, Failure> {
    let files: Vec<String> =
        args.iter().take_while(|a| !a.starts_with('-')).cloned().collect();
    if files.is_empty() {
        eprintln!(
            "error: fleet needs at least one input FILE \
             (icfgp fleet FILES... [--cache-dir DIR])"
        );
        return Ok(64);
    }
    let (config, points) = parse_rewrite_config(args)?;
    let quiet = is_quiet(args);
    run_command(args, quiet, !quiet, |cache| {
        const STAGES: [&str; 3] = ["funcs", "frags", "live"];
        // Per stage: [hits, misses, shared].
        let mut agg = [[0u64; 3]; 3];
        let mut code = 0u8;
        for (fi, path) in files.iter().enumerate() {
            let binary = load_binary(path)?;
            let (ladder, c) = run_ladder(&binary, &config, points.clone(), cache)?;
            code = code.max(c);
            let out = format!("{path}.rw");
            save_binary(&ladder.outcome.binary, &out)?;
            let mut per = [[0u64; 3]; 3];
            for s in &ladder.round_stats {
                let stages = [&s.func_analyses, &s.fragments, &s.liveness];
                for (k, st) in stages.into_iter().enumerate() {
                    per[k][0] += st.hits;
                    per[k][1] += st.misses;
                    per[k][2] += st.shared;
                }
            }
            for (a, p) in agg.iter_mut().zip(per.iter()) {
                for (av, pv) in a.iter_mut().zip(p.iter()) {
                    *av += pv;
                }
            }
            if !quiet {
                let cells: Vec<String> = STAGES
                    .iter()
                    .zip(per.iter())
                    .map(|(n, v)| fleet_cell(n, v))
                    .collect();
                outln!("[{}/{}] {path} -> {out}: {}", fi + 1, files.len(), cells.join(", "));
            }
        }
        if !quiet {
            let cells: Vec<String> =
                STAGES.iter().zip(agg.iter()).map(|(n, v)| fleet_cell(n, v)).collect();
            outln!("fleet: {} binaries — {}", files.len(), cells.join(", "));
        }
        Ok(code)
    })
    .map(|(code, _)| code)
}

/// One `stage hits/total (rate%, shared: N)` cell of the fleet report.
fn fleet_cell(name: &str, v: &[u64; 3]) -> String {
    let total = v[0] + v[1];
    let rate = if total == 0 { 0.0 } else { v[0] as f64 / total as f64 * 100.0 };
    format!("{name} {}/{total} hit ({rate:.0}%, shared: {})", v[0], v[2])
}

fn cmd_verify(args: &[String]) -> Result<u8, Failure> {
    let path = args.first().ok_or("missing FILE")?;
    let binary = load_binary(path)?;
    let (config, points) = parse_rewrite_config(args)?;
    let json = has_flag(args, "--json");
    run_command(args, json, false, |cache| {
        let (ladder, code) = run_ladder(&binary, &config, points, cache)?;
        let report = &ladder.verify;
        if json {
            outln!("{}", report.to_json().map_err(|e| e.to_string())?);
        } else {
            for d in &report.diagnostics {
                outln!("{d}");
            }
            outln!(
                "{path}: {} mode, {} function(s) checked ({} skipped), {} trampoline(s), \
                 {} patch(es), {} clone(s)",
                config.mode,
                report.functions_checked,
                report.functions_skipped,
                report.trampolines_checked,
                report.patches_checked,
                report.clones_checked
            );
            print_dispositions(&ladder);
            print_gate(&ladder);
        }
        Ok(code)
    })
    .map(|(code, _)| code)
}

/// `icfgp chaos` — one campaign runner; `--kill-resume` and `--net`
/// select the fault axis.
fn cmd_chaos(args: &[String]) -> Result<u8, Failure> {
    let axis = match (has_flag(args, "--kill-resume"), has_flag(args, "--net")) {
        (true, true) => {
            eprintln!("error: chaos sweeps one fault axis: --kill-resume or --net, not both");
            return Ok(64);
        }
        (true, false) => FaultAxis::KillResume,
        (false, true) => FaultAxis::Net,
        (false, false) => FaultAxis::Seed,
    };
    let mut config = CampaignConfig::new(axis);
    if let Some(n) = number::<u64>(args, "--seeds")? {
        if n == 0 {
            eprintln!("error: chaos --seeds 0 sweeps no cases; pass at least 1");
            return Ok(64);
        }
        config.seeds = (1..=n).collect();
    }
    if let Some(w) = arg_value(args, "--workloads") {
        config.workloads = w.split(',').map(str::to_string).collect();
    }
    if let Some(arch) = choice(args, "--arch", &ARCHES)? {
        config.arches = vec![arch];
    }
    if let Some(mode) = choice(args, "--mode", &MODES)? {
        config.modes = vec![mode];
    }
    if let Some(i) = arg_value(args, "--intensity") {
        if FaultPlan::named(&i, 0).is_none() {
            return Err(Failure::Usage(format!("unknown --intensity {i}")));
        }
        config.intensity = i;
    }
    if let Some(floor) = arg_value(args, "--floor") {
        config.policy.floor = parse_floor(&floor).map_err(Failure::Usage)?;
    }
    if let Some(budget) = number(args, "--budget")? {
        config.policy.max_below_floor = budget;
    }
    config.dir = cache_dir(args);
    let quiet = is_quiet(args);
    let json = has_flag(args, "--json");
    let tpath = trace_path(args);
    let spine = tpath.as_ref().map(|_| Trace::recording());
    config.trace = spine.clone();
    let run_span = spine.as_deref().map(|t| t.span(SpanKind::Run));
    let report = run_campaign(&config, |case| {
        if !json && !quiet {
            outln!("{}", case.line(axis));
        }
    })?;
    if let Some(s) = run_span {
        s.close();
    }
    if !quiet {
        if json {
            outln!("{}", serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
        } else {
            outln!();
            outln!("{}", report.render());
        }
    }
    if let (Some(t), Some(p)) = (&spine, &tpath) {
        write_trace(t, p)?;
    }
    Ok(report.exit_code())
}

/// `icfgp cache stats --store-url URL` — query a running cache server
/// for its server-side numbers, and report this client's retry and
/// circuit-breaker counters alongside.
fn cmd_cache_stats_remote(raw: &str) -> Result<u8, String> {
    let url = parse_store_url(raw)?;
    let store = RemoteStore::connect(&url, RemoteOptions::default());
    let s = store.server_stats()?;
    outln!("{url}:");
    outln!("  segments   : {} on disk, {} record(s)", s.segments, s.records);
    outln!("  quarantine : {} file(s), {} byte(s) on disk", s.quarantined_files, s.quarantined_bytes);
    outln!("  key-epoch  : {:#018x} (server), format v{}", s.key_epoch, s.format_version);
    outln!(
        "  server     : {} conn(s), {} request(s), {} hit / {} miss, \
         {} put(s) accepted / {} rejected",
        s.connections, s.requests, s.get_hits, s.get_misses, s.puts_accepted, s.puts_rejected,
    );
    if s.bad_frames > 0 {
        outln!("  bad frames : {}", s.bad_frames);
    }
    let c = store.stats();
    outln!(
        "  client     : {} retries, {} breaker trip(s), {} io error(s)",
        c.retries, c.breaker_trips, c.io_errors,
    );
    Ok(0)
}

/// `icfgp cache serve ADDR --cache-dir D` — serve a store directory
/// over the length-prefixed TCP protocol until killed.
fn cmd_cache_serve(args: &[String], dir: Option<PathBuf>) -> Result<u8, String> {
    let addr = args.first().filter(|a| !a.starts_with('-')).cloned().ok_or(
        "missing ADDR (icfgp cache serve HOST:PORT --cache-dir DIR; use HOST:0 \
         for an ephemeral port)",
    )?;
    let dir = dir.ok_or("missing --cache-dir DIR (or set ICFGP_CACHE_DIR)")?;
    let handle =
        serve(&addr, &dir, ServeOptions::default()).map_err(|e| format!("serve {addr}: {e}"))?;
    outln!("serving {} from {}", handle.url(), dir.display());
    outln!("  connect with --store-url {} (Ctrl-C to stop)", handle.url());
    handle.wait();
    Ok(0)
}

/// `icfgp cache <stats|verify|clear|corrupt>` — offline maintenance of
/// a persistent store directory.
fn cmd_cache(args: &[String]) -> Result<u8, Failure> {
    let sub = args
        .first()
        .ok_or("missing cache subcommand (stats|verify|clear|compact|corrupt|serve)")?;
    let rest = &args[1..];
    if sub == "serve" {
        return Ok(cmd_cache_serve(rest, cache_dir(rest))?);
    }
    if sub == "stats" {
        if let Some(raw) = store_url(rest) {
            return Ok(cmd_cache_stats_remote(&raw)?);
        }
    }
    let dir = cache_dir(rest)
        .ok_or("missing --cache-dir DIR (or set ICFGP_CACHE_DIR)")?;
    match sub.as_str() {
        "stats" => {
            // Open the store to count usable records per stage.
            let tpath = trace_path(rest);
            let spine = tpath.as_ref().map(|_| Trace::recording());
            let store = match &spine {
                Some(t) => CacheStore::open_traced(&dir, Arc::clone(t)),
                None => CacheStore::open(&dir),
            };
            let s = store.stats();
            outln!("{}:", dir.display());
            outln!(
                "  segments   : {} loaded, {} quarantined",
                s.segments_loaded, s.quarantined_segments
            );
            outln!(
                "  records    : {} usable, {} quarantined",
                s.records_loaded, s.quarantined_records
            );
            let (qfiles, qbytes) = store::quarantine_usage(&dir);
            outln!("  quarantine : {qfiles} file(s), {qbytes} byte(s) on disk");
            outln!("  key-epoch  : {:#018x} (this build)", store::KEY_EPOCH);
            for (stage, n) in store.entry_counts() {
                outln!("    {:<9}: {n}", stage.name());
            }
            for e in store.events() {
                outln!("  event      : {e}");
            }
            if let (Some(t), Some(p)) = (&spine, &tpath) {
                write_trace(t, p)?;
            }
            Ok(0)
        }
        "verify" => {
            let report = store::verify_dir(&dir);
            outln!("{}:", dir.display());
            outln!(
                "  {} segment(s), {} valid record(s), {} byte(s)",
                report.segments, report.valid_records, report.total_bytes
            );
            for p in &report.problems {
                outln!("  problem: {p}");
            }
            if report.quarantined_files > 0 {
                outln!("  {} quarantined file(s) present", report.quarantined_files);
            }
            if report.is_clean() {
                outln!("  store is clean");
                Ok(0)
            } else {
                outln!(
                    "  store is damaged: {} corrupt record(s), {} bad segment(s), \
                     {} truncated",
                    report.corrupt_records, report.bad_segments, report.truncated_segments
                );
                Ok(1)
            }
        }
        "clear" => {
            let removed = store::clear_dir(&dir)?;
            outln!("{}: removed {removed} file(s)", dir.display());
            Ok(0)
        }
        "compact" => {
            let r = store::compact_dir(&dir)?;
            outln!("{}:", dir.display());
            outln!(
                "  records    : {} kept, {} superseded dropped, {} corrupt dropped",
                r.records_kept, r.superseded_dropped, r.corrupt_dropped
            );
            outln!(
                "  segments   : {} compacted ({} unreadable dropped), \
                 {} quarantined file(s) removed",
                r.segments_before, r.bad_segments_dropped, r.quarantined_files_removed
            );
            outln!("  bytes      : {} -> {}", r.bytes_before, r.bytes_after);
            Ok(0)
        }
        "corrupt" => {
            let kind = arg_value(args, "--kind")
                .ok_or("missing --kind <bit-flip|truncate|stale-version>")?;
            let kind = CorruptKind::parse(&kind)
                .ok_or_else(|| format!("unknown --kind {kind}"))?;
            let seed = number(args, "--seed")?.unwrap_or(1);
            let what = store::corrupt_dir(&dir, kind, seed)?;
            outln!("{}: {what}", dir.display());
            Ok(0)
        }
        other => Err(format!("unknown cache subcommand {other}").into()),
    }
}

/// `icfgp trace <summarize|diff>` — offline analysis of a recorded
/// JSONL trace stream. `summarize` folds the stream back through the
/// metrics registry and prints top spans, the per-stage cache
/// histogram and counter totals; it exits 1 when the store
/// conservation laws are violated. `diff` prints per-counter deltas
/// between two streams.
fn cmd_trace(args: &[String]) -> Result<u8, String> {
    let sub = args.first().ok_or("missing trace subcommand (summarize|diff)")?;
    match sub.as_str() {
        "summarize" => {
            let path = args
                .get(1)
                .filter(|a| !a.starts_with('-'))
                .ok_or("missing FILE (icfgp trace summarize FILE)")?;
            let events = trace::read_jsonl(std::path::Path::new(path))?;
            let summary = trace::summarize_events(&events);
            out!("{}", summary.render());
            Ok(u8::from(!summary.violations().is_empty()))
        }
        "diff" => {
            let a = args
                .get(1)
                .filter(|a| !a.starts_with('-'))
                .ok_or("missing A (icfgp trace diff A B)")?;
            let b = args
                .get(2)
                .filter(|a| !a.starts_with('-'))
                .ok_or("missing B (icfgp trace diff A B)")?;
            let sa = trace::summarize_events(&trace::read_jsonl(std::path::Path::new(a))?);
            let sb = trace::summarize_events(&trace::read_jsonl(std::path::Path::new(b))?);
            out!("{}", trace::render_diff(&sa, &sb));
            Ok(0)
        }
        other => Err(format!("unknown trace subcommand {other} (summarize|diff)")),
    }
}

fn cmd_run(args: &[String]) -> Result<u8, Failure> {
    let path = args.first().ok_or("missing FILE")?;
    let bias = arg_value(args, "--bias")
        .map(|s| {
            u64::from_str_radix(s.trim_start_matches("0x"), 16)
                .map_err(|_| Failure::Usage(format!("bad --bias {s} (expected a hex number)")))
        })
        .transpose()?
        .unwrap_or(0);
    let fuel = number(args, "--fuel")?.unwrap_or(500_000_000);
    let binary = load_binary(path)?;
    let opts = LoadOptions {
        preload_runtime: has_flag(args, "--preload-runtime"),
        bias,
        fuel,
        ..LoadOptions::default()
    };
    match run(&binary, &opts) {
        Outcome::Halted(stats) => {
            outln!("halted normally");
            outln!("  output      : {:?}", stats.output);
            outln!("  instructions: {}", stats.instructions);
            outln!("  cycles      : {}", stats.cycles);
            outln!("  icache miss : {}", stats.icache_misses);
            outln!("  traps       : {}", stats.traps);
            outln!("  unwind steps: {} (ra translations {})", stats.unwind_steps, stats.ra_translations);
            Ok(0)
        }
        Outcome::Crashed { reason, stats } => {
            Err(format!("crashed after {} instructions: {reason}", stats.instructions).into())
        }
        Outcome::OutOfFuel(stats) => {
            Err(format!("out of fuel after {} instructions", stats.instructions).into())
        }
    }
}

fn main() -> ExitCode {
    // An explicit-but-invalid ICFGP_THREADS override is a usage error:
    // refuse to start rather than silently running with a thread count
    // the user did not ask for.
    if let Err(e) =
        pool::threads_from_env(std::env::var("ICFGP_THREADS").ok().as_deref())
    {
        eprintln!("error: {e}");
        return ExitCode::from(64);
    }
    // Same contract for the watchdog knob: an explicit-but-invalid
    // override refuses to start instead of silently using a default.
    let var = "ICFGP_FUNC_TIMEOUT_MS";
    if let Err(e) = store::env_millis(var, std::env::var(var).ok().as_deref()) {
        eprintln!("error: {e}");
        return ExitCode::from(64);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    // And for the store URL: a garbage `--store-url`/`ICFGP_STORE_URL`
    // is a usage error, not a degraded run against nothing.
    if let Some(raw) = store_url(&args) {
        if let Err(e) = parse_store_url(&raw) {
            eprintln!("error: {e}");
            eprintln!("usage: --store-url icfgp://HOST:PORT (or ICFGP_STORE_URL)");
            return ExitCode::from(64);
        }
    }
    let Some(cmd) = args.first() else { return usage() };
    let rest = &args[1..];
    let result = match check_flags(cmd, rest) {
        Err(e) => Err(e),
        Ok(()) => match cmd.as_str() {
            "gen" => cmd_gen(rest),
            "analyze" => cmd_analyze(rest).map(|()| 0).map_err(Failure::from),
            "audit" => cmd_audit(rest),
            "rewrite" => cmd_rewrite(rest),
            "fleet" => cmd_fleet(rest),
            "verify" => cmd_verify(rest),
            "run" => cmd_run(rest),
            "chaos" => cmd_chaos(rest),
            "cache" => cmd_cache(rest),
            "trace" => cmd_trace(rest).map_err(Failure::from),
            "list-workloads" => {
                outln!("small  firefox  docker  driverlib  switch_demo");
                for n in SPEC_NAMES {
                    outln!("spec:{n}");
                }
                Ok(0)
            }
            _ => return usage(),
        },
    };
    let result = match (result, STDOUT_ERROR.get()) {
        (Ok(_), Some(e)) => Err(Failure::Internal(e.clone())),
        (result, _) => result,
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(64)
        }
        Err(Failure::Internal(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}
