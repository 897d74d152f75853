//! Setup and the end-to-end phase: a closed loop with one client that
//! runs the `icfgp` release binary once per request.

use crate::calib;
use crate::icfgp::{Exit, Icfgp, Server};
use crate::stats::{median, percentile};
use crate::workload::{self, Reference, Workload};
use crate::{dir_mib, Phase};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Untimed requests before the measured loop.
pub const WARMUPS: usize = 3;
/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// A 64-bit digest of an output file's bytes (`None` if unreadable).
#[must_use]
pub fn digest_file(path: &Path) -> Option<u64> {
    std::fs::read(path).ok().map(|b| digest(&b))
}

/// A 64-bit digest of `bytes`.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Whether a request failed: an exit code other than 0 or 1 (1 is a
/// degraded rewrite within budget, which libxul's unanalysable
/// dispatchers give by design), the time limit, or output bytes that
/// differ from the reference.
#[must_use]
pub fn request_failed(exit: &Exit, output: Option<u64>, reference: u64) -> bool {
    exit.timed_out || !matches!(exit.code, Some(0 | 1)) || output != Some(reference)
}

/// A prepared workload: its input on disk, the reference for that
/// input, and the store (and server) it needs.
pub struct Setup {
    /// This setup's own directory.
    pub dir: PathBuf,
    /// The input file requests read (fleet: the base variant).
    pub input: PathBuf,
    /// The reference for `input`.
    pub reference: Reference,
    /// The store directory filled from `input` (warm and fleet).
    pub store: Option<PathBuf>,
    /// The cache server over `store` (fleet).
    pub server: Option<Server>,
}

impl Setup {
    /// Run one request over `input` (over the server when there is one,
    /// else over the store directory when there is one, else storeless)
    /// and digest what it wrote.
    ///
    /// # Errors
    ///
    /// The child could not be run.
    pub fn request(&self, icfgp: &Icfgp, input: &Path) -> Result<(Exit, Option<u64>), String> {
        let out = self.dir.join("out.icfgp");
        let _ = std::fs::remove_file(&out);
        let mut args: Vec<OsString> = vec!["rewrite".into(), input.into()];
        args.extend(["--mode", "func-ptr", "-o"].map(Into::into));
        args.extend([out.clone().into(), "--quiet".into()]);
        match (&self.server, &self.store) {
            (Some(server), _) => args.extend(["--store-url".into(), server.url.clone().into()]),
            (None, Some(dir)) => args.extend(["--cache-dir".into(), dir.into()]),
            (None, None) => {}
        }
        let exit = icfgp.run(&args)?;
        Ok((exit, digest_file(&out)))
    }
}

/// Generate the workload's input, compute and check its reference, and
/// fill the store (warm-disk, fleet) with one untimed rewrite; fleet
/// then serves that store.
///
/// # Errors
///
/// Any step fails, including the store-filling rewrite.
pub fn setup(w: Workload, icfgp: &Icfgp, dir: &Path) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let binary = match w {
        Workload::ColdLibxul | Workload::WarmDiskLibxul => workload::libxul(),
        Workload::ColdDriverlib => workload::driverlib(),
        Workload::FleetRemote => workload::fleet_variant(0),
    };
    let input = dir.join("in.icfgp");
    write_binary(&binary, &input)?;
    let reference = workload::reference(&binary)?;
    let mut setup = Setup {
        dir: dir.to_path_buf(),
        input,
        reference,
        store: None,
        server: None,
    };
    if matches!(w, Workload::WarmDiskLibxul | Workload::FleetRemote) {
        let store = dir.join("store");
        setup.store = Some(store.clone());
        // Filled through the local store path; the fleet server then
        // loads the same records a first remote client would have PUT.
        let (exit, out) = setup.request(icfgp, &setup.input)?;
        if request_failed(&exit, out, digest(&setup.reference.bytes)) {
            return Err(format!(
                "{}: store-filling rewrite failed: {exit:?}",
                w.name()
            ));
        }
        if w == Workload::FleetRemote {
            setup.server = Some(icfgp.serve(&store)?);
        }
    }
    Ok(setup)
}

/// Serialise `binary` to `path` as `icfgp` reads it.
///
/// # Errors
///
/// Serialising or writing fails.
pub fn write_binary(binary: &icfgp_obj::Binary, path: &Path) -> Result<(), String> {
    let bytes = serde_json::to_vec(binary).map_err(|e| e.to_string())?;
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// One request of the loop.
struct Sample {
    exit: Exit,
    output: Option<u64>,
    /// Fleet: the variant's perturb value; 0 for fixed inputs.
    perturb: u64,
    timed: bool,
    /// The request's latency in the reference machine's milliseconds,
    /// scaled by the calibration sample taken right after it.
    norm_ms: f64,
}

/// The end-to-end phase: [`SETUPS`] setups, [`WARMUPS`] untimed
/// requests, then requests one at a time for `seconds` (on
/// `fleet-remote`, a fixed [`workload::FLEET_REQUESTS_PER_S`] per
/// second of it), then the output check. A calibration sample follows
/// every setup and request, and scales it (see [`calib`]).
///
/// # Errors
///
/// Setup fails, or a child cannot be run.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    icfgp: &Icfgp,
    work: &Path,
) -> Result<Phase, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_norm_s = Vec::with_capacity(SETUPS);
    let mut calib_ms = Vec::new();
    let mut setup = None;
    for k in 0..SETUPS {
        // Tear the previous setup (and its server) down first.
        drop(setup.take());
        let t = Instant::now();
        setup = Some(self::setup(w, icfgp, &work.join(format!("setup-{k}")))?);
        let s = t.elapsed().as_secs_f64();
        let c = icfgp.calibrate()?;
        setup_s.push(s);
        setup_norm_s.push(s * calib::REF_MS / c);
        calib_ms.push(c);
    }
    let setup = setup.expect("at least one setup");

    let mut samples = Vec::new();
    let mut request = |i: u64, timed: bool| -> Result<Sample, String> {
        let (input, perturb) = if w == Workload::FleetRemote {
            let perturb = workload::fleet_perturb(seed, i);
            let path = setup.dir.join("variant.icfgp");
            write_binary(&workload::fleet_variant(perturb), &path)?;
            (path, perturb)
        } else {
            (setup.input.clone(), 0)
        };
        let (exit, output) = setup.request(icfgp, &input)?;
        let c = icfgp.calibrate()?;
        calib_ms.push(c);
        Ok(Sample {
            exit,
            output,
            perturb,
            timed,
            norm_ms: exit.ms * calib::REF_MS / c,
        })
    };
    for i in 0..WARMUPS as u64 {
        samples.push(request(i, false)?);
    }
    let start = Instant::now();
    let fleet_requests = WARMUPS + (seconds * workload::FLEET_REQUESTS_PER_S).ceil() as usize;
    let more = |done: usize| match w {
        Workload::FleetRemote => done < fleet_requests,
        _ => start.elapsed().as_secs_f64() < seconds,
    };
    while more(samples.len()) {
        samples.push(request(samples.len() as u64, true)?);
    }
    let store_mib = setup.store.as_deref().map_or(0.0, dir_mib);
    drop(setup.server);

    // Fleet references are computed after the loop, so the loop holds
    // nothing but requests and calibration.
    let fleet_refs = fleet_references(w, &samples)?;
    let expected = |s: &Sample| match fleet_refs.get(&s.perturb) {
        Some(&(d, funcs)) => (d, funcs),
        None => (digest(&setup.reference.bytes), setup.reference.funcs),
    };

    let timed: Vec<&Sample> = samples.iter().filter(|s| s.timed).collect();
    let raw: Vec<f64> = timed.iter().map(|s| s.exit.ms).collect();
    let norm: Vec<f64> = timed.iter().map(|s| s.norm_ms).collect();
    let mut failed = 0u64;
    let mut funcs_done = 0usize;
    for s in &samples {
        let (ref_digest, funcs) = expected(s);
        if request_failed(&s.exit, s.output, ref_digest) {
            failed += 1;
            eprintln!(
                "{}: request failed: {:?} (perturb {})",
                w.name(),
                s.exit,
                s.perturb
            );
        } else if s.timed {
            funcs_done += funcs;
        }
    }
    let per_s = |ms: &[f64]| {
        let busy_s = ms.iter().sum::<f64>() / 1e3;
        if busy_s > 0.0 {
            funcs_done as f64 / busy_s
        } else {
            0.0
        }
    };
    let peak_kib = timed.iter().map(|s| s.exit.maxrss_kib).max().unwrap_or(0);
    let r = &setup.reference;
    let attempted = samples.len() as u64;
    let metrics = BTreeMap::from([
        ("latency_ms_p50", percentile(&norm, 50.0)),
        ("latency_ms_p75", percentile(&norm, 75.0)),
        ("funcs_per_s", per_s(&norm)),
        ("setup_s", median(&setup_norm_s)),
        ("raw_latency_ms_p50", percentile(&raw, 50.0)),
        ("raw_latency_ms_p75", percentile(&raw, 75.0)),
        ("raw_funcs_per_s", per_s(&raw)),
        ("raw_setup_s", median(&setup_s)),
        ("calib_ms", median(&calib_ms)),
        ("peak_rss_mb", peak_kib as f64 / 1024.0),
        (
            "rw_cycles_pct",
            100.0 * r.emu_rw.cycles as f64 / r.emu_orig.cycles.max(1) as f64,
        ),
        ("size_increase_pct", 100.0 * r.size_increase),
        ("coverage_pct", 100.0 * r.coverage),
        ("store_mb", store_mib),
        ("failed_ratio", failed as f64 / attempted as f64),
    ]);
    Ok(Phase::new(attempted, failed, metrics))
}

/// Reference digest and rewritten-function count of every fleet variant
/// the loop requested, keyed by perturb value; empty for other
/// workloads. At most two worker threads, so the check stays small.
fn fleet_references(
    w: Workload,
    samples: &[Sample],
) -> Result<BTreeMap<u64, (u64, usize)>, String> {
    if w != Workload::FleetRemote {
        return Ok(BTreeMap::new());
    }
    let perturbs: Vec<u64> = samples.iter().map(|s| s.perturb).collect();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&p) = perturbs.get(k) else { break };
                        out.push(
                            workload::reference(&workload::fleet_variant(p))
                                .map(|r| (p, (digest(&r.bytes), r.funcs))),
                        );
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect::<Vec<_>>()
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_output_byte_fails_the_request() {
        let dir = crate::target_dir()
            .join("icfgp-perf")
            .join(format!("test-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let reference = b"{\"arch\":\"X64\",\"sections\":[1,2,3]}".to_vec();
        let out = dir.join("out.icfgp");
        let ok = Exit {
            code: Some(0),
            ms: 1.0,
            maxrss_kib: 1,
            timed_out: false,
        };
        std::fs::write(&out, &reference).unwrap();
        assert!(!request_failed(&ok, digest_file(&out), digest(&reference)));
        let mut flipped = reference.clone();
        flipped[7] ^= 0x01;
        std::fs::write(&out, &flipped).unwrap();
        assert!(request_failed(&ok, digest_file(&out), digest(&reference)));
        // Exit code 1 is a degraded-but-valid rewrite; 2 is not.
        std::fs::write(&out, &reference).unwrap();
        let degraded = Exit {
            code: Some(1),
            ..ok
        };
        assert!(!request_failed(
            &degraded,
            digest_file(&out),
            digest(&reference)
        ));
        let over_budget = Exit {
            code: Some(2),
            ..ok
        };
        assert!(request_failed(
            &over_budget,
            digest_file(&out),
            digest(&reference)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            request_failed(&ok, digest_file(&out), digest(&reference)),
            "missing output"
        );
    }
}
