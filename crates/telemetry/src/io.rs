//! Telemetry interchange: JSON export/import of [`ExperimentRun`]s and a
//! CSV loader for resource-utilization series.
//!
//! The simulator is a stand-in for real collection infrastructure; this
//! module is the seam where real telemetry enters the pipeline. A
//! deployment that logs the Table 2 counters can serialize them in either
//! format and run the identical feature-selection / similarity /
//! prediction code paths.

use crate::features::ResourceFeature;
use crate::run::{ExperimentRun, PlanStats, ResourceSeries, RunKey};
use wp_json::{obj, skip_value, Event, EventSource, Json, JsonEvents};
use wp_linalg::Matrix;

/// Serializes runs to pretty-printed JSON.
pub fn runs_to_json(runs: &[ExperimentRun]) -> String {
    Json::Arr(runs.iter().map(run_to_json).collect()).pretty()
}

/// Parses runs from JSON produced by [`runs_to_json`] (or by any external
/// collector emitting the same schema).
pub fn runs_from_json(json: &str) -> Result<Vec<ExperimentRun>, String> {
    let doc = Json::parse(json).map_err(|e| format!("invalid telemetry JSON: {e}"))?;
    let runs = doc
        .as_arr()
        .ok_or("invalid telemetry JSON: top level must be an array")?;
    runs.iter()
        .enumerate()
        .map(|(i, r)| run_from_json(r).map_err(|e| format!("invalid telemetry JSON: run {i}: {e}")))
        .collect()
}

fn matrix_to_json(m: &Matrix) -> Json {
    obj! {
        "rows" => m.rows(),
        "cols" => m.cols(),
        "data" => m.as_slice().to_vec(),
    }
}

/// Serializes one run as a [`Json`] value in the interchange schema.
///
/// Building block for embedding runs inside larger documents (the
/// `wp-server` request/response bodies and corpus files); [`runs_to_json`]
/// is the plain-array convenience over it.
pub fn run_to_json(run: &ExperimentRun) -> Json {
    obj! {
        "key" => obj! {
            "workload" => run.key.workload.clone(),
            "sku" => run.key.sku.clone(),
            "terminals" => run.key.terminals,
            "run_index" => run.key.run_index,
            "data_group" => run.key.data_group,
        },
        "resources" => obj! {
            "data" => matrix_to_json(&run.resources.data),
            "sample_interval_secs" => run.resources.sample_interval_secs,
        },
        "plans" => obj! {
            "data" => matrix_to_json(&run.plans.data),
            "query_names" => run.plans.query_names.clone(),
        },
        "throughput" => run.throughput,
        "latency_ms" => run.latency_ms,
        "per_query_latency_ms" => run.per_query_latency_ms.clone(),
    }
}

/// The outcome of decoding one value against the run schema. The outer
/// `Err` is a syntax error in the document, and decoding stops there.
/// The inner `Err` is a schema error: the value was read to its end, so
/// a caller can hold the error and read on.
pub type Decoded<T> = Result<Result<T, String>, String>;

/// Parses one run from its [`Json`] interchange form (inverse of
/// [`run_to_json`]). Walks the tree through [`decode_run`], so the tree
/// and the text paths share every schema check and error string.
pub fn run_from_json(v: &Json) -> Result<ExperimentRun, String> {
    let mut events = JsonEvents::new(v);
    let first = events.next_in_value()?;
    decode_run(&mut events, first)?
}

/// Decodes one run of the interchange schema from the value that began
/// with `first`, reading the value to its end.
///
/// Member order is free, unknown members are ignored and the first of
/// duplicate keys wins. Schema errors do not depend on member order:
/// the first failing check in a fixed order (`key`, `resources` and
/// `plans` present, then every field in [`ExperimentRun`] order) is
/// reported. A matrix's `data` array goes straight into its buffer, which is
/// reserved up front when `rows` and `cols` come before it (the order
/// [`run_to_json`] writes), capped by what the rest of the document can
/// hold.
pub fn decode_run<'a>(src: &mut impl EventSource<'a>, first: Event<'a>) -> Decoded<ExperimentRun> {
    let mut run = RunParts::default();
    read_object(src, first, |src, name, value| match name {
        "key" => fill(&mut run.key, src, value, decode_key),
        "resources" => fill(&mut run.resources, src, value, decode_resources),
        "plans" => fill(&mut run.plans, src, value, decode_plans),
        "throughput" => fill(&mut run.throughput, src, value, |s, v| {
            decode_num(s, v, name)
        }),
        "latency_ms" => fill(&mut run.latency_ms, src, value, |s, v| {
            decode_num(s, v, name)
        }),
        "per_query_latency_ms" => fill(&mut run.per_query_latency_ms, src, value, |s, v| {
            decode_nums(s, v, name, None)
        }),
        _ => skip_value(src, &value),
    })?;
    Ok(run.assemble())
}

/// Decodes a member into `slot`, unless an earlier duplicate key
/// already filled it: the first of duplicate keys wins.
fn fill<'a, S: EventSource<'a>, T>(
    slot: &mut Option<T>,
    src: &mut S,
    value: Event<'a>,
    decode: impl FnOnce(&mut S, Event<'a>) -> Result<T, String>,
) -> Result<(), String> {
    if slot.is_some() {
        return skip_value(src, &value);
    }
    *slot = Some(decode(src, value)?);
    Ok(())
}

/// A field's decoded value: `None` while absent, `Some(Err)` when present
/// with the wrong type.
type Slot<T> = Option<Result<T, String>>;

#[derive(Default)]
struct RunParts {
    key: Option<KeyParts>,
    resources: Option<ResourceParts>,
    plans: Option<PlanParts>,
    throughput: Slot<f64>,
    latency_ms: Slot<f64>,
    per_query_latency_ms: Slot<Vec<f64>>,
}

#[derive(Default)]
struct KeyParts {
    workload: Slot<String>,
    sku: Slot<String>,
    terminals: Slot<usize>,
    run_index: Slot<usize>,
    data_group: Slot<usize>,
}

#[derive(Default)]
struct ResourceParts {
    data: Option<MatrixParts>,
    interval: Slot<f64>,
}

#[derive(Default)]
struct PlanParts {
    data: Option<MatrixParts>,
    query_names: Slot<Vec<String>>,
}

#[derive(Default)]
struct MatrixParts {
    rows: Slot<usize>,
    cols: Slot<usize>,
    data: Slot<Vec<f64>>,
}

/// A present object member; an object that is present but not an object
/// has all its own members missing.
fn member<T>(part: Option<T>, key: &str) -> Result<T, String> {
    part.ok_or_else(|| format!("missing field '{key}'"))
}

fn field<T>(slot: Slot<T>, key: &str) -> Result<T, String> {
    slot.unwrap_or_else(|| Err(format!("missing field '{key}'")))
}

impl MatrixParts {
    fn assemble(self) -> Result<Matrix, String> {
        Matrix::try_from_vec(
            field(self.rows, "rows")?,
            field(self.cols, "cols")?,
            field(self.data, "data")?,
        )
    }
}

impl RunParts {
    /// The run, or the first schema error in check order.
    fn assemble(self) -> Result<ExperimentRun, String> {
        let key = member(self.key, "key")?;
        let resources = member(self.resources, "resources")?;
        let plans = member(self.plans, "plans")?;
        Ok(ExperimentRun {
            key: RunKey {
                workload: field(key.workload, "workload")?,
                sku: field(key.sku, "sku")?,
                terminals: field(key.terminals, "terminals")?,
                run_index: field(key.run_index, "run_index")?,
                data_group: field(key.data_group, "data_group")?,
            },
            resources: ResourceSeries {
                data: member(resources.data, "data")?.assemble()?,
                sample_interval_secs: field(resources.interval, "sample_interval_secs")?,
            },
            plans: PlanStats {
                data: member(plans.data, "data")?.assemble()?,
                query_names: field(plans.query_names, "query_names")?,
            },
            throughput: field(self.throughput, "throughput")?,
            latency_ms: field(self.latency_ms, "latency_ms")?,
            per_query_latency_ms: field(self.per_query_latency_ms, "per_query_latency_ms")?,
        })
    }
}

/// Calls `member` with each key and the first event of its value, which
/// `member` must read to its end. A value that is not an object is
/// skipped and yields no members.
fn read_object<'a, S: EventSource<'a>>(
    src: &mut S,
    first: Event<'a>,
    mut member: impl FnMut(&mut S, &str, Event<'a>) -> Result<(), String>,
) -> Result<(), String> {
    if first != Event::BeginObject {
        return skip_value(src, &first);
    }
    while let Event::Key(key) = src.next_in_value()? {
        let value = src.next_in_value()?;
        member(src, &key, value)?;
    }
    Ok(())
}

fn decode_key<'a>(src: &mut impl EventSource<'a>, first: Event<'a>) -> Result<KeyParts, String> {
    let mut key = KeyParts::default();
    read_object(src, first, |src, name, value| match name {
        "workload" => fill(&mut key.workload, src, value, |s, v| decode_str(s, v, name)),
        "sku" => fill(&mut key.sku, src, value, |s, v| decode_str(s, v, name)),
        "terminals" => fill(&mut key.terminals, src, value, |s, v| {
            decode_usize(s, v, name)
        }),
        "run_index" => fill(&mut key.run_index, src, value, |s, v| {
            decode_usize(s, v, name)
        }),
        "data_group" => fill(&mut key.data_group, src, value, |s, v| {
            decode_usize(s, v, name)
        }),
        _ => skip_value(src, &value),
    })?;
    Ok(key)
}

fn decode_resources<'a>(
    src: &mut impl EventSource<'a>,
    first: Event<'a>,
) -> Result<ResourceParts, String> {
    let mut parts = ResourceParts::default();
    read_object(src, first, |src, name, value| match name {
        "data" => fill(&mut parts.data, src, value, decode_matrix),
        "sample_interval_secs" => fill(&mut parts.interval, src, value, |s, v| {
            decode_num(s, v, name)
        }),
        _ => skip_value(src, &value),
    })?;
    Ok(parts)
}

fn decode_plans<'a>(src: &mut impl EventSource<'a>, first: Event<'a>) -> Result<PlanParts, String> {
    let mut parts = PlanParts::default();
    read_object(src, first, |src, name, value| match name {
        "data" => fill(&mut parts.data, src, value, decode_matrix),
        "query_names" => fill(&mut parts.query_names, src, value, |s, v| {
            decode_strings(s, v, name)
        }),
        _ => skip_value(src, &value),
    })?;
    Ok(parts)
}

fn decode_matrix<'a>(
    src: &mut impl EventSource<'a>,
    first: Event<'a>,
) -> Result<MatrixParts, String> {
    let mut m = MatrixParts::default();
    read_object(src, first, |src, name, value| match name {
        "rows" => fill(&mut m.rows, src, value, |s, v| decode_usize(s, v, name)),
        "cols" => fill(&mut m.cols, src, value, |s, v| decode_usize(s, v, name)),
        "data" => {
            let len = match (&m.rows, &m.cols) {
                (Some(Ok(rows)), Some(Ok(cols))) => rows.checked_mul(*cols),
                _ => None,
            };
            fill(&mut m.data, src, value, |s, v| decode_nums(s, v, name, len))
        }
        _ => skip_value(src, &value),
    })?;
    Ok(m)
}

/// `take` returns a value of the wrong type back; it is skipped and
/// becomes `error`.
fn scalar<'a, T>(
    src: &mut impl EventSource<'a>,
    first: Event<'a>,
    take: impl FnOnce(Event<'a>) -> Result<T, Event<'a>>,
    error: impl FnOnce() -> String,
) -> Decoded<T> {
    match take(first) {
        Ok(v) => Ok(Ok(v)),
        Err(other) => {
            skip_value(src, &other)?;
            Ok(Err(error()))
        }
    }
}

fn decode_num<'a>(src: &mut impl EventSource<'a>, first: Event<'a>, key: &str) -> Decoded<f64> {
    scalar(
        src,
        first,
        |e| match e {
            Event::Num(x) => Ok(x),
            other => Err(other),
        },
        || format!("field '{key}' must be a number"),
    )
}

fn decode_usize<'a>(src: &mut impl EventSource<'a>, first: Event<'a>, key: &str) -> Decoded<usize> {
    scalar(
        src,
        first,
        |e| match e {
            Event::Num(x) => Json::Num(x).as_usize().ok_or(Event::Num(x)),
            other => Err(other),
        },
        || format!("field '{key}' must be a non-negative integer"),
    )
}

fn decode_str<'a>(src: &mut impl EventSource<'a>, first: Event<'a>, key: &str) -> Decoded<String> {
    scalar(
        src,
        first,
        |e| match e {
            Event::Str(s) => Ok(s.into_owned()),
            other => Err(other),
        },
        || format!("field '{key}' must be a string"),
    )
}

/// An array of numbers. `len` is the length the document claims for it;
/// the buffer is reserved for that many, capped by what the source can
/// still hold.
fn decode_nums<'a>(
    src: &mut impl EventSource<'a>,
    first: Event<'a>,
    key: &str,
    len: Option<usize>,
) -> Decoded<Vec<f64>> {
    if first != Event::BeginArray {
        skip_value(src, &first)?;
        return Ok(Err(format!("field '{key}' must be an array")));
    }
    let mut items = Vec::with_capacity(len.map_or(0, |n| n.min(src.array_capacity_bound())));
    match src.read_numbers(&mut items)? {
        Event::EndArray => Ok(Ok(items)),
        other => {
            // Read past the offending item and the rest of the array.
            skip_value(src, &other)?;
            skip_value(src, &Event::BeginArray)?;
            Ok(Err(format!("field '{key}' must contain numbers")))
        }
    }
}

/// An array of strings; any other item is skipped and makes the field
/// `must contain strings`.
fn decode_strings<'a>(
    src: &mut impl EventSource<'a>,
    first: Event<'a>,
    key: &str,
) -> Decoded<Vec<String>> {
    if first != Event::BeginArray {
        skip_value(src, &first)?;
        return Ok(Err(format!("field '{key}' must be an array")));
    }
    let mut items = Ok(Vec::new());
    loop {
        match src.next_in_value()? {
            Event::EndArray => return Ok(items),
            Event::Str(s) => {
                if let Ok(list) = &mut items {
                    list.push(s.into_owned());
                }
            }
            other => {
                skip_value(src, &other)?;
                items = Err(format!("field '{key}' must contain strings"));
            }
        }
    }
}

/// Parses a resource-utilization CSV into a [`ResourceSeries`].
///
/// Expected layout: a header row naming the resource features (any order,
/// Table 2 names), then one row per sample. Additional columns are
/// ignored; all seven resource features must be present. Example:
///
/// ```csv
/// CPU_UTILIZATION,CPU_EFFECTIVE,MEM_UTILIZATION,IOPS_TOTAL,READ_WRITE_RATIO,LOCK_REQ_ABS,LOCK_WAIT_ABS
/// 0.52,0.47,0.61,1520,1.4,3300,120
/// ```
pub fn resource_series_from_csv(
    csv: &str,
    sample_interval_secs: f64,
) -> Result<ResourceSeries, String> {
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty CSV")?;
    let columns: Vec<&str> = header.split(',').map(str::trim).collect();

    // map each catalog feature to its CSV column
    let mut positions = Vec::with_capacity(ResourceFeature::ALL.len());
    for f in ResourceFeature::ALL {
        let pos = columns
            .iter()
            .position(|c| *c == f.name())
            .ok_or_else(|| format!("missing column '{}'", f.name()))?;
        positions.push(pos);
    }

    let mut rows = Vec::new();
    for (line_no, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        let mut row = Vec::with_capacity(positions.len());
        for (&pos, f) in positions.iter().zip(ResourceFeature::ALL.iter()) {
            let cell = cells
                .get(pos)
                .ok_or_else(|| format!("line {}: too few cells for '{}'", line_no + 2, f.name()))?;
            let v: f64 = cell.parse().map_err(|_| {
                format!(
                    "line {}: cannot parse '{}' for '{}'",
                    line_no + 2,
                    cell,
                    f.name()
                )
            })?;
            row.push(v);
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err("CSV has a header but no samples".into());
    }
    Ok(ResourceSeries::new(
        Matrix::from_rows(&rows),
        sample_interval_secs,
    ))
}

/// Renders a resource series back to the CSV layout accepted by
/// [`resource_series_from_csv`].
pub fn resource_series_to_csv(series: &ResourceSeries) -> String {
    let mut out = String::new();
    let names: Vec<&str> = ResourceFeature::ALL.iter().map(|f| f.name()).collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for r in 0..series.len() {
        let row: Vec<String> = series.data.row(r).iter().map(|v| v.to_string()).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{PlanStats, RunKey};

    fn sample_run() -> ExperimentRun {
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..7).map(|c| (i * 7 + c) as f64 * 0.5).collect())
            .collect();
        ExperimentRun {
            key: RunKey {
                workload: "TPC-C".into(),
                sku: "cpu8".into(),
                terminals: 8,
                run_index: 1,
                data_group: 1,
            },
            resources: ResourceSeries::new(Matrix::from_rows(&rows), 10.0),
            plans: PlanStats::new(
                Matrix::from_rows(&[vec![1.5; 22], vec![2.5; 22]]),
                vec!["NewOrder".into(), "Payment".into()],
            ),
            throughput: 812.5,
            latency_ms: 9.8,
            per_query_latency_ms: vec![11.0, 7.0],
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let runs = vec![sample_run(), sample_run()];
        let json = runs_to_json(&runs);
        let back = runs_from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].key, runs[0].key);
        assert_eq!(back[0].resources, runs[0].resources);
        assert_eq!(back[0].plans, runs[0].plans);
        assert_eq!(back[0].throughput, runs[0].throughput);
        assert_eq!(back[0].per_query_latency_ms, runs[0].per_query_latency_ms);
    }

    #[test]
    fn corrupt_json_is_an_error() {
        assert!(runs_from_json("not json").is_err());
        // valid JSON with a broken matrix invariant must also fail
        let bad = r#"[{"key":{"workload":"w","sku":"s","terminals":1,"run_index":0,
            "data_group":0},
            "resources":{"data":{"rows":2,"cols":7,"data":[1.0]},
                         "sample_interval_secs":10.0},
            "plans":{"data":{"rows":0,"cols":22,"data":[]},"query_names":[]},
            "throughput":1.0,"latency_ms":1.0,"per_query_latency_ms":[]}]"#;
        let err = runs_from_json(bad).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    /// Decodes `text` through the tokenizer, as the server does.
    fn decode_text(text: &str) -> Result<ExperimentRun, String> {
        let mut tokens = wp_json::Tokenizer::new(text);
        let first = tokens.next_in_value()?;
        let run = decode_run(&mut tokens, first)?;
        tokens.finish()?;
        run
    }

    #[test]
    fn text_and_tree_decode_agree_in_any_member_order() {
        let run = sample_run();
        let mut doc = run_to_json(&run);
        // Reverse every object's members, so `data` precedes `rows` and
        // `cols`, and append a later duplicate that must lose.
        fn reverse(v: &mut Json) {
            if let Json::Obj(members) = v {
                members.reverse();
                members.iter_mut().for_each(|(_, v)| reverse(v));
            }
        }
        reverse(&mut doc);
        if let Json::Obj(members) = &mut doc {
            members.push(("throughput".into(), Json::Str("late".into())));
            members.insert(0, ("unknown".into(), Json::Arr(vec![Json::Null])));
        }
        let text = doc.compact();
        for back in [run_from_json(&doc).unwrap(), decode_text(&text).unwrap()] {
            assert_eq!(back.key, run.key);
            assert_eq!(back.resources, run.resources);
            assert_eq!(back.plans, run.plans);
            assert_eq!(back.throughput.to_bits(), run.throughput.to_bits());
            assert_eq!(back.per_query_latency_ms, run.per_query_latency_ms);
        }
    }

    #[test]
    fn schema_errors_follow_check_order_not_member_order() {
        // `latency_ms` is ill-typed and comes first, but `key` is
        // checked first and is missing.
        let text = r#"{"latency_ms":"x","resources":{},"plans":{}}"#;
        let tree = run_from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert_eq!(tree, "missing field 'key'");
        assert_eq!(decode_text(text).unwrap_err(), tree);
        // A syntax error after a schema error is still reported.
        let text = r#"{"key":7,"resources":{},"plans":{}"#;
        assert_eq!(
            decode_text(text).unwrap_err(),
            "expected ',' or '}' at byte 34"
        );
    }

    /// The schema's error precedence, pinned: filling in a run one
    /// member at a time, each error names the next member in check
    /// order, whatever order the members were written in.
    #[test]
    fn schema_errors_come_in_check_order() {
        let steps: &[(&[&str], Json, &str)] = &[
            (&[], Json::Obj(vec![]), "missing field 'key'"),
            (&["key"], Json::Obj(vec![]), "missing field 'resources'"),
            (&["resources"], Json::Obj(vec![]), "missing field 'plans'"),
            (&["plans"], Json::Obj(vec![]), "missing field 'workload'"),
            (&["key", "workload"], "w".into(), "missing field 'sku'"),
            (&["key", "sku"], "s".into(), "missing field 'terminals'"),
            (
                &["key", "terminals"],
                1usize.into(),
                "missing field 'run_index'",
            ),
            (
                &["key", "run_index"],
                0usize.into(),
                "missing field 'data_group'",
            ),
            (
                &["key", "data_group"],
                0usize.into(),
                "missing field 'data'",
            ),
            (
                &["resources", "data"],
                Json::Obj(vec![]),
                "missing field 'rows'",
            ),
            (
                &["resources", "data", "rows"],
                1usize.into(),
                "missing field 'cols'",
            ),
            (
                &["resources", "data", "cols"],
                7usize.into(),
                "missing field 'data'",
            ),
            (
                &["resources", "data", "data"],
                vec![0.5; 7].into(),
                "missing field 'sample_interval_secs'",
            ),
            (
                &["resources", "sample_interval_secs"],
                10.0.into(),
                "missing field 'data'",
            ),
            (
                &["plans", "data"],
                Json::Obj(vec![]),
                "missing field 'rows'",
            ),
            (
                &["plans", "data", "rows"],
                0usize.into(),
                "missing field 'cols'",
            ),
            (
                &["plans", "data", "cols"],
                22usize.into(),
                "missing field 'data'",
            ),
            (
                &["plans", "data", "data"],
                Json::Arr(vec![]),
                "missing field 'query_names'",
            ),
            (
                &["plans", "query_names"],
                Json::Arr(vec![]),
                "missing field 'throughput'",
            ),
            (&["throughput"], 1.0.into(), "missing field 'latency_ms'"),
            (
                &["latency_ms"],
                1.0.into(),
                "missing field 'per_query_latency_ms'",
            ),
            (&["per_query_latency_ms"], Json::Arr(vec![]), ""),
        ];
        fn insert(doc: &mut Json, path: &[&str], value: Json) {
            let Json::Obj(members) = doc else {
                unreachable!("paths run through objects")
            };
            match path {
                [key] => members.insert(0, (key.to_string(), value)),
                [key, rest @ ..] => {
                    let (_, child) = members.iter_mut().find(|(k, _)| k == key).unwrap();
                    insert(child, rest, value);
                }
                [] => unreachable!("the root is replaced, not inserted"),
            }
        }
        let mut doc = Json::Null;
        for (path, value, want) in steps {
            if path.is_empty() {
                doc = value.clone();
            } else {
                insert(&mut doc, path, value.clone());
            }
            let tree = run_from_json(&doc).err().unwrap_or_default();
            assert_eq!(&tree, want, "after {path:?}");
            assert_eq!(decode_text(&doc.compact()).err().unwrap_or_default(), tree);
        }
    }

    /// A shape claiming 10^12 values is not reserved for: the reservation
    /// is capped by what the rest of the text can hold.
    #[test]
    fn claimed_shapes_do_not_size_allocations() {
        let text = sample_run_text().replacen(
            r#""rows":4,"cols":7,"data":["#,
            r#""rows":1000000000,"cols":1000,"data":["#,
            1,
        );
        let err = decode_text(&text).unwrap_err();
        assert_eq!(
            err,
            "matrix buffer length 28 does not match 1000000000x1000"
        );
    }

    fn sample_run_text() -> String {
        run_to_json(&sample_run()).compact()
    }

    #[test]
    fn csv_roundtrip() {
        let series = sample_run().resources;
        let csv = resource_series_to_csv(&series);
        let back = resource_series_from_csv(&csv, 10.0).unwrap();
        assert_eq!(back, series);
    }

    #[test]
    fn csv_accepts_permuted_and_extra_columns() {
        let csv = "timestamp,LOCK_WAIT_ABS,LOCK_REQ_ABS,READ_WRITE_RATIO,IOPS_TOTAL,\
                   MEM_UTILIZATION,CPU_EFFECTIVE,CPU_UTILIZATION\n\
                   0,6,5,4,3,2,1,0.5\n\
                   10,60,50,40,30,20,10,5\n";
        let series = resource_series_from_csv(csv, 10.0).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(
            series.feature(ResourceFeature::CpuUtilization),
            vec![0.5, 5.0]
        );
        assert_eq!(
            series.feature(ResourceFeature::LockWaitAbs),
            vec![6.0, 60.0]
        );
    }

    #[test]
    fn csv_missing_column_is_an_error() {
        let csv = "CPU_UTILIZATION\n0.5\n";
        let err = resource_series_from_csv(csv, 10.0).unwrap_err();
        assert!(err.contains("missing column"), "{err}");
    }

    #[test]
    fn csv_bad_cell_reports_location() {
        let csv = "CPU_UTILIZATION,CPU_EFFECTIVE,MEM_UTILIZATION,IOPS_TOTAL,\
                   READ_WRITE_RATIO,LOCK_REQ_ABS,LOCK_WAIT_ABS\n\
                   0.5,abc,0.6,100,1,2,3\n";
        let err = resource_series_from_csv(csv, 10.0).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("CPU_EFFECTIVE"),
            "{err}"
        );
    }

    #[test]
    fn empty_csv_rejected() {
        assert!(resource_series_from_csv("", 10.0).is_err());
        assert!(resource_series_from_csv(
            "CPU_UTILIZATION,CPU_EFFECTIVE,MEM_UTILIZATION,IOPS_TOTAL,READ_WRITE_RATIO,LOCK_REQ_ABS,LOCK_WAIT_ABS\n",
            10.0
        )
        .is_err());
    }
}
