//! The `.ring` scenario parser.
//!
//! The surface syntax is a small INI dialect: `[section]` headers,
//! `key = value` pairs, `#` comments (full-line or trailing), blank lines
//! ignored. Sections and keys are validated against a closed table, values
//! against the typed [`Plan`] model, and cross-field constraints (one
//! workload source, executor-knob/mode agreement, fault legality) against
//! the scenario's mode — every failure is a [`ScenarioError`] carrying the
//! offending line and column.
//!
//! Lexical errors (malformed lines, unknown sections/keys, duplicates)
//! surface in source order; semantic validation then proceeds section by
//! section in the canonical order `scenario`, `topology`, `workload`,
//! `algorithm`, `executor`, `faults`, `trace`, `compete`, `service`.

use crate::error::{ErrorKind, ScenarioError};
use crate::plan::{
    AlgSelect, CatalogSel, ExecMode, ExecutorSpec, Mode, Plan, ServiceSpec, ShapeKind, TopoKind,
    Workload,
};
use ring_sched::dynamic::parse_arrivals;
use ring_sched::UnitConfig;
use ring_sim::FaultPlan;

/// Largest ring size a scenario may request (2^24 processors).
pub const MAX_M: usize = 1 << 24;

const SECTIONS: &[(&str, &[&str])] = &[
    ("scenario", &["name", "mode"]),
    ("topology", &["kind", "m", "racks", "rows", "cols"]),
    (
        "workload",
        &[
            "loads",
            "case",
            "catalog",
            "shape",
            "n",
            "seed",
            "arrivals",
            "compete-case",
            "compete-catalog",
        ],
    ),
    ("algorithm", &["name", "c"]),
    (
        "executor",
        &[
            "mode",
            "shards",
            "window",
            "compress",
            "tasks-per-shard",
            "steal-seed",
            "threads",
        ],
    ),
    ("faults", &["plan", "seed", "horizon"]),
    ("trace", &["level"]),
    ("compete", &["policies"]),
    ("service", &["epoch", "queue-cap", "slo", "drain-at"]),
];

const WORKLOAD_SOURCES: &[&str] = &[
    "loads",
    "case",
    "catalog",
    "shape",
    "arrivals",
    "compete-case",
    "compete-catalog",
];

#[derive(Debug)]
struct RawKey {
    key: String,
    value: String,
    line: usize,
    key_col: usize,
    val_col: usize,
}

#[derive(Debug)]
struct RawSection {
    name: String,
    line: usize,
    col: usize,
    keys: Vec<RawKey>,
}

/// 1-based column (in characters) of byte offset `idx` in `line`.
fn col_at(line: &str, idx: usize) -> usize {
    1 + line[..idx].chars().count()
}

fn lex(text: &str) -> Result<Vec<RawSection>, ScenarioError> {
    let mut sections: Vec<RawSection> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let content = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        };
        let trimmed = content.trim();
        if trimmed.is_empty() {
            continue;
        }
        let start = col_at(raw, content.find(trimmed).expect("trimmed is a substring"));
        if let Some(inner) = trimmed.strip_prefix('[') {
            let name = inner.strip_suffix(']').ok_or_else(|| {
                ScenarioError::at(
                    lineno,
                    start,
                    ErrorKind::Malformed("section header is missing `]`".to_string()),
                )
            })?;
            let name = name.trim().to_string();
            if !SECTIONS.iter().any(|(s, _)| *s == name) {
                return Err(ScenarioError::at(
                    lineno,
                    start,
                    ErrorKind::UnknownSection(name),
                ));
            }
            if sections.iter().any(|s| s.name == name) {
                return Err(ScenarioError::at(
                    lineno,
                    start,
                    ErrorKind::DuplicateSection(name),
                ));
            }
            sections.push(RawSection {
                name,
                line: lineno,
                col: start,
                keys: Vec::new(),
            });
            continue;
        }
        let Some(eq) = content.find('=') else {
            return Err(ScenarioError::at(
                lineno,
                start,
                ErrorKind::Malformed("expected `key = value` or `[section]`".to_string()),
            ));
        };
        let key = content[..eq].trim();
        let value = content[eq + 1..].trim();
        let key_col = if key.is_empty() {
            start
        } else {
            col_at(raw, content.find(key).expect("key is a substring"))
        };
        let val_col = if value.is_empty() {
            col_at(raw, eq + 1)
        } else {
            col_at(
                raw,
                eq + 1 + content[eq + 1..].find(value).expect("substring"),
            )
        };
        if key.is_empty() {
            return Err(ScenarioError::at(
                lineno,
                key_col,
                ErrorKind::Malformed("expected a key before `=`".to_string()),
            ));
        }
        let Some(section) = sections.last_mut() else {
            return Err(ScenarioError::at(
                lineno,
                key_col,
                ErrorKind::Malformed(format!("key `{key}` appears before any [section]")),
            ));
        };
        let allowed = SECTIONS
            .iter()
            .find(|(s, _)| *s == section.name)
            .map(|(_, keys)| *keys)
            .expect("section was validated");
        if !allowed.contains(&key) {
            return Err(ScenarioError::at(
                lineno,
                key_col,
                ErrorKind::UnknownKey(key.to_string()),
            ));
        }
        if section.keys.iter().any(|k| k.key == key) {
            return Err(ScenarioError::at(
                lineno,
                key_col,
                ErrorKind::DuplicateKey(key.to_string()),
            ));
        }
        if value.is_empty() {
            return Err(ScenarioError::at(
                lineno,
                val_col,
                ErrorKind::BadValue {
                    key: key.to_string(),
                    msg: "empty value".to_string(),
                },
            ));
        }
        section.keys.push(RawKey {
            key: key.to_string(),
            value: value.to_string(),
            line: lineno,
            key_col,
            val_col,
        });
    }
    Ok(sections)
}

fn bad(k: &RawKey, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::at(
        k.line,
        k.val_col,
        ErrorKind::BadValue {
            key: k.key.clone(),
            msg: msg.into(),
        },
    )
}

fn out_of_range(k: &RawKey, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::at(
        k.line,
        k.val_col,
        ErrorKind::OutOfRange {
            key: k.key.clone(),
            msg: msg.into(),
        },
    )
}

fn conflict(k: &RawKey, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::at(k.line, k.key_col, ErrorKind::Conflict(msg.into()))
}

fn section_conflict(s: &RawSection, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::at(s.line, s.col, ErrorKind::Conflict(msg.into()))
}

fn num<T: std::str::FromStr>(k: &RawKey) -> Result<T, ScenarioError> {
    k.value
        .parse()
        .map_err(|_| bad(k, format!("`{}` is not a number", k.value)))
}

fn boolean(k: &RawKey) -> Result<bool, ScenarioError> {
    match k.value.as_str() {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(bad(k, format!("`{other}` is not `true` or `false`"))),
    }
}

fn find<'a>(s: Option<&'a RawSection>, key: &str) -> Option<&'a RawKey> {
    s.and_then(|s| s.keys.iter().find(|k| k.key == key))
}

/// Parses `.ring` scenario text into a validated [`Plan`].
pub fn parse_plan(text: &str) -> Result<Plan, ScenarioError> {
    let sections = lex(text)?;
    let sec = |name: &str| sections.iter().find(|s| s.name == name);

    // [scenario]
    let scenario = sec("scenario")
        .ok_or_else(|| ScenarioError::file(ErrorKind::Missing("[scenario] section".to_string())))?;
    let name = find(Some(scenario), "name")
        .ok_or_else(|| {
            ScenarioError::at(
                scenario.line,
                scenario.col,
                ErrorKind::Missing("`name` in [scenario]".to_string()),
            )
        })?
        .value
        .clone();
    let mode = match find(Some(scenario), "mode") {
        None => Mode::Run,
        Some(k) => match k.value.as_str() {
            "run" => Mode::Run,
            "compete" => Mode::Compete,
            "serve" => Mode::Serve,
            other => return Err(bad(k, format!("`{other}` is not run, compete, or serve"))),
        },
    };

    // [topology]
    let topo_sec = sec("topology");
    let kind_key = find(topo_sec, "kind");
    let kind = match kind_key {
        None => TopoKind::Ring,
        Some(k) => match k.value.as_str() {
            "ring" => TopoKind::Ring,
            "hier" => TopoKind::Hier,
            "torus" => TopoKind::Torus,
            "clique" => TopoKind::Clique,
            other => {
                return Err(bad(
                    k,
                    format!("`{other}` is not ring, hier, torus, or clique"),
                ))
            }
        },
    };
    let dim = |key: &str| -> Result<Option<usize>, ScenarioError> {
        match find(topo_sec, key) {
            None => Ok(None),
            Some(k) => {
                let v: u64 = num(k)?;
                if v == 0 || v > MAX_M as u64 {
                    return Err(out_of_range(k, format!("must be 1..={MAX_M} (got {v})")));
                }
                Ok(Some(v as usize))
            }
        }
    };
    let m_key = find(topo_sec, "m");
    let m = dim("m")?;
    let racks = dim("racks")?;
    let rows = dim("rows")?;
    let cols = dim("cols")?;
    // Dimension keys must agree with the kind.
    if let Some(s) = topo_sec {
        for k in &s.keys {
            let wanted = match k.key.as_str() {
                "racks" => Some(TopoKind::Hier),
                "rows" | "cols" => Some(TopoKind::Torus),
                _ => None,
            };
            if let Some(want) = wanted {
                if kind != want {
                    return Err(conflict(
                        k,
                        format!("`{}` requires kind = {}", k.key, want.name()),
                    ));
                }
            }
        }
    }
    let missing_dim = |key: &str| -> ScenarioError {
        let anchor = kind_key.expect("non-ring kinds come from a kind key");
        ScenarioError::at(
            anchor.line,
            anchor.key_col,
            ErrorKind::Missing(format!(
                "`{key}` in [topology] (required by kind = {})",
                kind.name()
            )),
        )
    };
    let topo_len: Option<usize> = match kind {
        TopoKind::Ring => m,
        TopoKind::Clique => Some(m.ok_or_else(|| missing_dim("m"))?),
        TopoKind::Hier => {
            if let Some(k) = m_key {
                let racks = racks.ok_or_else(|| missing_dim("racks"))?;
                let rack_len = m.expect("m_key implies m");
                let total = (racks as u64) * (rack_len as u64);
                if total > MAX_M as u64 {
                    return Err(out_of_range(
                        k,
                        format!("racks × m must be <= {MAX_M} (got {total})"),
                    ));
                }
                Some(total as usize)
            } else {
                return Err(missing_dim("m"));
            }
        }
        TopoKind::Torus => {
            if let Some(k) = m_key {
                return Err(conflict(k, "torus size comes from rows × cols (not m)"));
            }
            let r = rows.ok_or_else(|| missing_dim("rows"))?;
            let c = cols.ok_or_else(|| missing_dim("cols"))?;
            let total = (r as u64) * (c as u64);
            if total > MAX_M as u64 {
                let k = find(topo_sec, "rows").expect("rows was parsed");
                return Err(out_of_range(
                    k,
                    format!("rows × cols must be <= {MAX_M} (got {total})"),
                ));
            }
            Some(total as usize)
        }
    };
    // Non-ring topologies drive the fabric engine: run mode only.
    if kind != TopoKind::Ring && mode != Mode::Run {
        let k = kind_key.expect("non-ring kinds come from a kind key");
        return Err(conflict(
            k,
            format!("kind = {} requires mode = run", kind.name()),
        ));
    }

    // [workload]
    let workload_sec = sec("workload")
        .ok_or_else(|| ScenarioError::file(ErrorKind::Missing("[workload] section".to_string())))?;
    let present: Vec<&RawKey> = workload_sec
        .keys
        .iter()
        .filter(|k| WORKLOAD_SOURCES.contains(&k.key.as_str()))
        .collect();
    let source = match present.as_slice() {
        [] => {
            return Err(ScenarioError::at(
                workload_sec.line,
                workload_sec.col,
                ErrorKind::Missing(
                    "a workload source (loads, case, catalog, shape, arrivals, \
                     compete-case, or compete-catalog)"
                        .to_string(),
                ),
            ))
        }
        [one] => *one,
        [first, second, ..] => {
            return Err(conflict(
                second,
                format!(
                    "`{}` conflicts with `{}` (one workload source only)",
                    second.key, first.key
                ),
            ))
        }
    };
    let aux_n = find(Some(workload_sec), "n");
    let aux_seed = find(Some(workload_sec), "seed");
    if source.key != "shape" {
        if let Some(k) = aux_n {
            return Err(conflict(k, "`n` requires `shape`"));
        }
        if let Some(k) = aux_seed {
            return Err(conflict(k, "`seed` requires `shape`"));
        }
    }
    let workload = match source.key.as_str() {
        "loads" => {
            let loads: Result<Vec<u64>, _> = source
                .value
                .split_whitespace()
                .map(|w| w.parse::<u64>())
                .collect();
            let loads = loads.map_err(|_| bad(source, "expected space-separated load counts"))?;
            if kind == TopoKind::Ring {
                if let Some(m) = m {
                    if m != loads.len() {
                        return Err(conflict(
                            m_key.expect("m came from a key"),
                            format!("m = {m} disagrees with {} loads", loads.len()),
                        ));
                    }
                }
            } else {
                let total = topo_len.expect("non-ring kinds have a node count");
                if total != loads.len() {
                    let k = kind_key.expect("non-ring kinds come from a kind key");
                    return Err(conflict(
                        k,
                        format!(
                            "kind = {} has {total} nodes but the workload has {} loads",
                            kind.name(),
                            loads.len()
                        ),
                    ));
                }
            }
            Workload::Loads(loads)
        }
        "case" => {
            if ring_workloads::catalog::catalog_case(&source.value).is_none() {
                return Err(bad(
                    source,
                    format!("unknown catalog case id `{}`", source.value),
                ));
            }
            Workload::Case(source.value.clone())
        }
        "catalog" => Workload::Catalog(match source.value.as_str() {
            "all" => CatalogSel::All,
            "part1" => CatalogSel::Part1,
            "part2" => CatalogSel::Part2,
            "part3" => CatalogSel::Part3,
            other => {
                return Err(bad(
                    source,
                    format!("`{other}` is not all, part1, part2, or part3"),
                ))
            }
        }),
        "shape" => {
            let shape = match source.value.as_str() {
                "concentrated" => ShapeKind::Concentrated,
                "region" => ShapeKind::Region,
                "uniform" => ShapeKind::Uniform,
                "datacenter" => ShapeKind::Datacenter,
                other => {
                    return Err(bad(
                        source,
                        format!("`{other}` is not concentrated, region, uniform, or datacenter"),
                    ))
                }
            };
            if shape == ShapeKind::Datacenter && kind != TopoKind::Hier {
                return Err(conflict(source, "shape = datacenter requires kind = hier"));
            }
            if shape == ShapeKind::Region && kind != TopoKind::Ring {
                return Err(conflict(source, "shape = region requires a ring topology"));
            }
            let n_key = aux_n.ok_or_else(|| {
                ScenarioError::at(
                    source.line,
                    source.key_col,
                    ErrorKind::Missing("`n` in [workload] (required by shape)".to_string()),
                )
            })?;
            let n: u64 = num(n_key)?;
            if n == 0 {
                return Err(out_of_range(n_key, format!("must be >= 1 (got {n})")));
            }
            let seed = match (shape, aux_seed) {
                (ShapeKind::Uniform | ShapeKind::Datacenter, Some(k)) => num(k)?,
                (ShapeKind::Uniform | ShapeKind::Datacenter, None) => {
                    return Err(ScenarioError::at(
                        source.line,
                        source.key_col,
                        ErrorKind::Missing(format!(
                            "`seed` in [workload] (required by shape = {})",
                            shape.name()
                        )),
                    ))
                }
                (_, Some(k)) => {
                    return Err(conflict(
                        k,
                        "`seed` is only meaningful for shape = uniform or datacenter",
                    ))
                }
                (_, None) => 0,
            };
            Workload::Shape {
                kind: shape,
                n,
                seed,
            }
        }
        "arrivals" => {
            let m = m.ok_or_else(|| {
                ScenarioError::at(
                    source.line,
                    source.key_col,
                    ErrorKind::Missing(
                        "[topology] m (required by an arrival workload)".to_string(),
                    ),
                )
            })?;
            let arrivals = parse_arrivals(&source.value, m).map_err(|e| bad(source, e))?;
            if arrivals.is_empty() {
                return Err(bad(source, "at least one arrival batch is required"));
            }
            Workload::Arrivals(arrivals)
        }
        "compete-case" => {
            if ring_compete::compete_case(&source.value).is_none() {
                return Err(bad(
                    source,
                    format!("unknown compete case `{}`", source.value),
                ));
            }
            Workload::CompeteCase(source.value.clone())
        }
        "compete-catalog" => {
            if source.value != "all" {
                return Err(bad(source, "the only supported value is `all`"));
            }
            Workload::CompeteCatalog
        }
        _ => unreachable!("source keys are the WORKLOAD_SOURCES table"),
    };
    // Non-ring topologies run static loads or shape workloads only.
    if kind != TopoKind::Ring && !matches!(workload, Workload::Loads(_) | Workload::Shape { .. }) {
        return Err(conflict(
            source,
            format!("`{}` requires a ring topology", source.key),
        ));
    }
    // Workload-implied ring sizes must not also be stated.
    if matches!(
        workload,
        Workload::Case(_)
            | Workload::Catalog(_)
            | Workload::CompeteCase(_)
            | Workload::CompeteCatalog
    ) {
        if let Some(k) = m_key {
            return Err(conflict(k, "m is implied by the workload"));
        }
    }
    // Shape workloads need an explicit size.
    if matches!(workload, Workload::Shape { .. }) && topo_len.is_none() {
        return Err(ScenarioError::at(
            source.line,
            source.key_col,
            ErrorKind::Missing("[topology] m (required by a shape workload)".to_string()),
        ));
    }

    // Mode / workload agreement.
    let compete_workload = matches!(
        workload,
        Workload::CompeteCase(_) | Workload::CompeteCatalog
    );
    match mode {
        Mode::Run if compete_workload => {
            return Err(conflict(
                source,
                format!("`{}` requires mode = compete", source.key),
            ))
        }
        Mode::Compete if !compete_workload && !matches!(workload, Workload::Arrivals(_)) => {
            return Err(conflict(
                source,
                "compete mode measures arrival scripts (arrivals, compete-case, \
                 or compete-catalog)",
            ))
        }
        Mode::Serve if !matches!(workload, Workload::Arrivals(_)) => {
            return Err(conflict(source, "serve mode requires an arrivals workload"))
        }
        _ => {}
    }

    // [algorithm]
    let algorithm = match sec("algorithm") {
        None => None,
        Some(s) => {
            if mode == Mode::Compete {
                return Err(section_conflict(
                    s,
                    "[algorithm] is not used in compete mode (select via [compete] policies)",
                ));
            }
            let name_key = find(Some(s), "name").ok_or_else(|| {
                ScenarioError::at(
                    s.line,
                    s.col,
                    ErrorKind::Missing("`name` in [algorithm]".to_string()),
                )
            })?;
            let c_key = find(Some(s), "c");
            let lower = name_key.value.to_lowercase();
            if kind != TopoKind::Ring {
                if let Some(k) = c_key {
                    return Err(conflict(k, "`c` tunes the ring algorithms only"));
                }
                if ring_sched::FabricAlgo::parse(&lower).is_err() {
                    return Err(bad(
                        name_key,
                        format!(
                            "`{}` is not a fabric policy (diffuse or clique)",
                            name_key.value
                        ),
                    ));
                }
                if lower == "clique" && kind != TopoKind::Clique {
                    return Err(conflict(
                        name_key,
                        "the clique scheduler requires kind = clique",
                    ));
                }
                Some(AlgSelect::One {
                    name: lower,
                    c: None,
                })
            } else if lower == "all6" {
                if let Some(k) = c_key {
                    return Err(conflict(k, "`c` cannot be combined with name = all6"));
                }
                if mode == Mode::Serve {
                    return Err(conflict(name_key, "serve mode runs one algorithm"));
                }
                Some(AlgSelect::AllSix)
            } else {
                if UnitConfig::from_name(&lower).is_none() {
                    return Err(bad(
                        name_key,
                        format!(
                            "`{}` is not an algorithm (a1 b1 c1 a2 b2 c2 all6)",
                            name_key.value
                        ),
                    ));
                }
                let c = match c_key {
                    None => None,
                    Some(k) => {
                        let c: f64 = num(k)?;
                        if !c.is_finite() || c <= 1.0 {
                            return Err(out_of_range(
                                k,
                                format!("must be a finite number > 1 (got {})", k.value),
                            ));
                        }
                        Some(c)
                    }
                };
                Some(AlgSelect::One { name: lower, c })
            }
        }
    };

    // [executor]
    let executor_sec = sec("executor");
    let exec_mode = match find(executor_sec, "mode") {
        None => ExecMode::Run,
        Some(k) => match k.value.as_str() {
            "run" => ExecMode::Run,
            "par" => ExecMode::Par,
            "steal" => {
                return Err(bad(
                    k,
                    "`steal` is not an executor mode (`par` is the work-stealing executor)",
                ))
            }
            other => return Err(bad(k, format!("`{other}` is not run or par"))),
        },
    };
    let mut executor = ExecutorSpec {
        mode: exec_mode,
        ..ExecutorSpec::default()
    };
    if let Some(s) = executor_sec {
        for k in &s.keys {
            if exec_mode == ExecMode::Run && !matches!(k.key.as_str(), "mode" | "compress") {
                return Err(conflict(
                    k,
                    format!("`{}` requires executor mode par", k.key),
                ));
            }
            match k.key.as_str() {
                "mode" => {}
                "compress" => executor.compress = boolean(k)?,
                "shards" => {
                    let v: usize = num(k)?;
                    if v == 0 || v > 1024 {
                        return Err(out_of_range(k, format!("must be 1..=1024 (got {v})")));
                    }
                    executor.shards = Some(v);
                }
                "window" => {
                    executor.window = Some(if k.value == "L" {
                        u64::MAX
                    } else {
                        let v: u64 = num(k)?;
                        if v == 0 {
                            return Err(out_of_range(k, "must be >= 1 or `L` (got 0)"));
                        }
                        v
                    });
                }
                "tasks-per-shard" => {
                    let v: usize = num(k)?;
                    if v == 0 || v > 64 {
                        return Err(out_of_range(k, format!("must be 1..=64 (got {v})")));
                    }
                    executor.tasks_per_shard = Some(v);
                }
                "steal-seed" => executor.steal_seed = Some(num(k)?),
                "threads" => {
                    let v: usize = num(k)?;
                    if v == 0 || v > 256 {
                        return Err(out_of_range(k, format!("must be 1..=256 (got {v})")));
                    }
                    executor.threads = Some(v);
                }
                _ => unreachable!("lexer rejects unknown executor keys"),
            }
        }
        if kind != TopoKind::Ring {
            for k in &s.keys {
                if !matches!(k.key.as_str(), "mode" | "shards") {
                    return Err(conflict(k, format!("`{}` requires a ring topology", k.key)));
                }
            }
        }
        if mode == Mode::Compete {
            for k in &s.keys {
                if !matches!(k.key.as_str(), "mode" | "shards") {
                    return Err(conflict(
                        k,
                        format!("`{}` is not supported in compete mode", k.key),
                    ));
                }
            }
        }
        if mode == Mode::Serve {
            for k in &s.keys {
                if !matches!(k.key.as_str(), "mode" | "shards") {
                    return Err(conflict(
                        k,
                        format!("`{}` is not supported in serve mode", k.key),
                    ));
                }
            }
        }
        if matches!(workload, Workload::Arrivals(_)) && mode == Mode::Run {
            for k in &s.keys {
                if matches!(
                    k.key.as_str(),
                    "window" | "tasks-per-shard" | "steal-seed" | "threads"
                ) {
                    return Err(conflict(
                        k,
                        format!("`{}` requires a static workload", k.key),
                    ));
                }
            }
        }
    }

    // [faults]
    let faults = match sec("faults") {
        None => None,
        Some(s) => {
            if mode != Mode::Run {
                return Err(section_conflict(s, "[faults] requires mode = run"));
            }
            let fault_m = match &workload {
                Workload::Loads(loads) => loads.len(),
                Workload::Shape { .. } => topo_len.expect("shape requires a sized topology"),
                Workload::Arrivals(_) => {
                    return Err(section_conflict(
                        s,
                        "[faults] cannot be combined with an arrival workload",
                    ))
                }
                _ => {
                    return Err(section_conflict(
                        s,
                        "[faults] requires an explicit ring size (loads or shape workload)",
                    ))
                }
            };
            let plan_key = find(Some(s), "plan");
            let seed_key = find(Some(s), "seed");
            let horizon_key = find(Some(s), "horizon");
            let plan = match (plan_key, seed_key) {
                (Some(p), Some(_)) => {
                    return Err(conflict(p, "`plan` and `seed` are alternatives"))
                }
                (Some(p), None) => {
                    if let Some(h) = horizon_key {
                        return Err(conflict(h, "`horizon` requires `seed`"));
                    }
                    FaultPlan::parse(&p.value, fault_m).map_err(|e| bad(p, e))?
                }
                (None, Some(sd)) => {
                    let seed: u64 = num(sd)?;
                    let horizon: u64 = match horizon_key {
                        Some(h) => num(h)?,
                        None => 64,
                    };
                    FaultPlan::random(fault_m, horizon, seed)
                }
                (None, None) => {
                    return Err(ScenarioError::at(
                        s.line,
                        s.col,
                        ErrorKind::Missing("`plan` or `seed` in [faults]".to_string()),
                    ))
                }
            };
            if plan.is_empty() {
                None
            } else {
                Some(plan)
            }
        }
    };

    // [trace]
    let trace_full = match sec("trace") {
        None => false,
        Some(s) => {
            if mode != Mode::Run {
                return Err(section_conflict(s, "[trace] requires mode = run"));
            }
            let k = find(Some(s), "level").ok_or_else(|| {
                ScenarioError::at(
                    s.line,
                    s.col,
                    ErrorKind::Missing("`level` in [trace]".to_string()),
                )
            })?;
            match k.value.as_str() {
                "off" => false,
                "full" => true,
                other => return Err(bad(k, format!("`{other}` is not off or full"))),
            }
        }
    };

    // [compete]
    let policies = match sec("compete") {
        None => None,
        Some(s) => {
            if mode != Mode::Compete {
                return Err(section_conflict(s, "[compete] requires mode = compete"));
            }
            match find(Some(s), "policies") {
                None => None,
                Some(k) if k.value == "suite" => None,
                Some(k) => {
                    let mut names = Vec::new();
                    for want in k.value.split_whitespace() {
                        if ring_compete::policy_by_name(want).is_none() {
                            return Err(bad(
                                k,
                                format!("unknown policy `{want}` (a1 b1 c1 a2 b2 c2 mig ml)"),
                            ));
                        }
                        names.push(want.to_lowercase());
                    }
                    Some(names)
                }
            }
        }
    };

    // [service]
    let service = match sec("service") {
        None => None,
        Some(s) => {
            if mode != Mode::Serve {
                return Err(section_conflict(s, "[service] requires mode = serve"));
            }
            let get = |key: &str| -> Result<Option<u64>, ScenarioError> {
                match find(Some(s), key) {
                    None => Ok(None),
                    Some(k) => Ok(Some(num(k)?)),
                }
            };
            Some(ServiceSpec {
                epoch: get("epoch")?,
                queue_cap: get("queue-cap")?,
                slo: get("slo")?,
                drain_at: get("drain-at")?,
            })
        }
    };

    Ok(Plan {
        name,
        mode,
        kind,
        m,
        racks,
        rows,
        cols,
        workload,
        algorithm,
        executor,
        faults,
        trace_full,
        policies,
        service,
    })
}

/// Reads and parses a `.ring` file.
pub fn load_plan(path: impl AsRef<std::path::Path>) -> Result<Plan, ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::file(ErrorKind::Io(e.to_string())))?;
    parse_plan(&text)
}
