//! Result digests kept with the benchmark, and the check against them.
//!
//! `reference.json` holds, per seed, one digest of every Fig. 7 cell's
//! `resultjson::to_json` and one of the 1000-point crash sweep. For the
//! default seed it also keeps each cell's headline fields and counters
//! and every crash point's outcome, so a mismatch names the first
//! differing cell and stat (or crash point and field). Regenerate it with
//! `--write-reference` after a change that is meant to alter simulated
//! results.

use std::collections::BTreeMap;
use std::fmt::Write;

use asap_sim::fingerprint::hash_bytes;
use asap_sim::json::{self, Value};
use asap_workloads::{resultjson, CrashPointOutcome, RunResult, SweepResult};

use crate::grid;

const REFERENCE: &str = include_str!("../reference.json");

/// Where `--write-reference` writes (the file compiled in above).
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");

/// Digest of one result's canonical JSON.
pub fn cell_digest(r: &RunResult) -> String {
    hash_bytes(resultjson::to_json(r).as_bytes()).hex()
}

/// Digest of a whole grid from its cell digests, in spec order.
pub fn grid_digest(cells: &[String]) -> String {
    hash_bytes(cells.join(",").as_bytes()).hex()
}

fn point_row(p: &CrashPointOutcome) -> [u64; 6] {
    [
        p.crash_after,
        u64::from(p.crashed),
        p.uncommitted,
        p.replayed,
        p.restored_lines,
        p.tx,
    ]
}

const POINT_FIELDS: [&str; 6] = [
    "crash_after",
    "crashed",
    "uncommitted",
    "replayed",
    "restored_lines",
    "tx",
];

/// Digest of a sweep: the baseline, every fork and the crash-point
/// summary.
pub fn sweep_digest(s: &SweepResult) -> String {
    let mut text = resultjson::to_json(&s.baseline);
    for f in &s.forks {
        text.push_str(&resultjson::to_json(f));
    }
    for p in &s.baseline.crash_points {
        let _ = write!(text, "{:?}", point_row(p));
    }
    hash_bytes(text.as_bytes()).hex()
}

/// Outcome of a reference check.
pub enum Verdict {
    Match,
    /// The reference keeps nothing for this seed.
    NoReference,
    Mismatch(String),
}

impl Verdict {
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Match => "match",
            Verdict::NoReference => "none-for-seed",
            Verdict::Mismatch(_) => "mismatch",
        }
    }
}

fn parsed() -> Result<Value, String> {
    json::parse(REFERENCE).map_err(|e| format!("reference.json: {e}"))
}

fn seed_entry<'a>(v: &'a Value, table: &str, seed: u64) -> Option<&'a str> {
    v.get(table)?.get(&seed.to_string())?.as_str()
}

fn is_default(v: &Value, seed: u64) -> bool {
    v.get("default_seed").and_then(Value::as_u64) == Some(seed)
}

/// Checks a grid's results (Fig. 7 spec order) against the reference.
pub fn check_grid(seed: u64, results: &[RunResult], digests: &[String]) -> Verdict {
    let v = match parsed() {
        Ok(v) => v,
        Err(e) => return Verdict::Mismatch(e),
    };
    let Some(want) = seed_entry(&v, "grid", seed) else {
        return Verdict::NoReference;
    };
    if grid_digest(digests) == want {
        return Verdict::Match;
    }
    let detail = if is_default(&v, seed) {
        first_grid_difference(&v, results, digests)
    } else {
        "per-cell detail is kept for the default seed only".to_string()
    };
    Verdict::Mismatch(format!("grid digest differs from reference: {detail}"))
}

fn cell_fields(r: &RunResult) -> Vec<(String, u64)> {
    let mut f = vec![
        ("tx".to_string(), r.tx),
        ("exec_cycles".to_string(), r.exec_cycles),
        ("drained_cycles".to_string(), r.drained_cycles),
        ("pm_writes".to_string(), r.pm_writes),
    ];
    f.extend(r.stats.counters().map(|(n, v)| (format!("stats.{n}"), v)));
    f
}

fn first_grid_difference(v: &Value, results: &[RunResult], digests: &[String]) -> String {
    let Some(cells) = v.get("grid_cells").and_then(Value::as_object) else {
        return "reference has no per-cell detail".to_string();
    };
    for (r, d) in results.iter().zip(digests) {
        let label = grid::label(&r.spec);
        let Some(cell) = cells.get(&label) else {
            return format!("cell {label} missing from reference");
        };
        if cell.get("digest").and_then(Value::as_str) == Some(d.as_str()) {
            continue;
        }
        let want: BTreeMap<String, u64> = cell
            .get("fields")
            .and_then(Value::as_object)
            .map(|o| {
                o.iter()
                    .filter_map(|(k, x)| Some((k.clone(), x.as_u64()?)))
                    .collect()
            })
            .unwrap_or_default();
        let got: BTreeMap<String, u64> = cell_fields(r).into_iter().collect();
        let stat = want
            .keys()
            .chain(got.keys())
            .find(|k| want.get(*k) != got.get(*k))
            .map_or("a summary, histogram or float field".to_string(), |k| {
                format!(
                    "{k} = {} (reference {})",
                    got.get(k).map_or("absent".to_string(), u64::to_string),
                    want.get(k).map_or("absent".to_string(), u64::to_string)
                )
            });
        return format!("first differing cell {label}: {stat}");
    }
    "cell digests match but their combination does not".to_string()
}

/// Checks a sweep against the reference.
pub fn check_sweep(seed: u64, sweep: &SweepResult) -> Verdict {
    let v = match parsed() {
        Ok(v) => v,
        Err(e) => return Verdict::Mismatch(e),
    };
    let Some(want) = seed_entry(&v, "sweep", seed) else {
        return Verdict::NoReference;
    };
    if sweep_digest(sweep) == want {
        return Verdict::Match;
    }
    let mut detail = "per-point detail is kept for the default seed only".to_string();
    if is_default(&v, seed) {
        detail = "crash points match; a fork's full result differs".to_string();
        let rows = v
            .get("sweep_points")
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        let got = &sweep.baseline.crash_points;
        if rows.len() != got.len() {
            detail = format!("{} crash points (reference {})", got.len(), rows.len());
        } else if let Some((i, (row, p))) = rows
            .iter()
            .zip(got)
            .enumerate()
            .find(|(_, (row, p))| row_of(row) != Some(point_row(p)))
        {
            let want = row_of(row).unwrap_or_default();
            let have = point_row(p);
            let k = (0..6).find(|&k| want[k] != have[k]).unwrap_or(0);
            detail = format!(
                "first differing crash point #{i} (crash_after {}): {} = {} (reference {})",
                p.crash_after, POINT_FIELDS[k], have[k], want[k]
            );
        }
    }
    Verdict::Mismatch(format!("sweep digest differs from reference: {detail}"))
}

fn row_of(v: &Value) -> Option<[u64; 6]> {
    let a = v.as_array()?;
    let mut out = [0u64; 6];
    for (o, x) in out.iter_mut().zip(a) {
        *o = x.as_u64()?;
    }
    (a.len() == 6).then_some(out)
}

/// What `--write-reference` collects for one seed.
pub struct SeedEntry {
    pub seed: u64,
    pub grid: Vec<RunResult>,
    pub sweep: SweepResult,
}

/// Renders `reference.json` from freshly computed results; `default` is
/// the seed whose per-cell and per-point detail is kept.
pub fn render(default: u64, entries: &[SeedEntry]) -> String {
    let mut grid = String::new();
    let mut sweep = String::new();
    for (i, e) in entries.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let digests: Vec<String> = e.grid.iter().map(cell_digest).collect();
        let _ = write!(
            grid,
            "{sep}\n    \"{}\": \"{}\"",
            e.seed,
            grid_digest(&digests)
        );
        let _ = write!(
            sweep,
            "{sep}\n    \"{}\": \"{}\"",
            e.seed,
            sweep_digest(&e.sweep)
        );
    }
    let mut cells = String::new();
    let mut points = String::new();
    if let Some(e) = entries.iter().find(|e| e.seed == default) {
        for (i, r) in e.grid.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let fields: Vec<String> = cell_fields(r)
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", json::escape(k)))
                .collect();
            let _ = write!(
                cells,
                "{sep}\n    \"{}\": {{\"digest\":\"{}\",\"fields\":{{{}}}}}",
                grid::label(&r.spec),
                cell_digest(r),
                fields.join(",")
            );
        }
        for (i, p) in e.sweep.baseline.crash_points.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let row = point_row(p).map(|x| x.to_string()).join(",");
            let _ = write!(points, "{sep}\n    [{row}]");
        }
    }
    format!(
        "{{\n  \"schema\": \"perfbench-reference-v1\",\n  \"default_seed\": {default},\n  \
         \"grid\": {{{grid}\n  }},\n  \"sweep\": {{{sweep}\n  }},\n  \
         \"grid_cells\": {{{cells}\n  }},\n  \"sweep_points\": [{points}\n  ]\n}}\n"
    )
}
