//! One-pass decode of the `POST` bodies that carry telemetry.
//!
//! A body is tokenized once. Its first top-level `"runs"` member goes
//! through `wp_telemetry::io::decode_run` straight into
//! [`ExperimentRun`]s, so its matrices never exist as `Json` trees. Every
//! other member is built as [`Json`], which keeps the handlers'
//! `doc.get(..)` lookups as they are.
//!
//! Error precedence matches a parse of the whole tree followed by a walk
//! of it: any syntax error wins, because the tokenizer reads to the end
//! of the body before a schema error can be reported. A schema error in
//! `"runs"` is held until a handler asks for the runs, so a handler's
//! own earlier checks (`/recommend`'s `slo`) still come first.

use wp_json::{build_value, skip_value, Event, EventSource, Json, Tokenizer};
use wp_telemetry::io::decode_run;
use wp_telemetry::ExperimentRun;

use crate::service::ServiceError;

/// A decoded `POST` body.
pub(crate) struct PostBody {
    /// Every top-level member but the first `"runs"`, in body order. A
    /// body that is not an object is held here whole.
    pub doc: Json,
    /// The first `"runs"` member.
    pub runs: PostedRuns,
}

/// The first `"runs"` member of a body: absent, or its decoded runs, or
/// the schema error that decoding them met.
pub(crate) struct PostedRuns(Option<Result<Vec<ExperimentRun>, String>>);

impl PostBody {
    /// Decodes `body`; a syntax error is a 400.
    pub fn parse(body: &str) -> Result<Self, ServiceError> {
        Self::decode(body).map_err(|e| ServiceError::bad_request(format!("invalid JSON body: {e}")))
    }

    fn decode(body: &str) -> Result<Self, String> {
        let mut tokens = Tokenizer::new(body);
        let first = tokens.next_in_value()?;
        if first != Event::BeginObject {
            let doc = build_value(&mut tokens, first)?;
            tokens.finish()?;
            return Ok(Self {
                doc,
                runs: PostedRuns(None),
            });
        }
        let mut members = Vec::new();
        let mut runs = None;
        while let Event::Key(key) = tokens.next_in_value()? {
            let value = tokens.next_in_value()?;
            if key != "runs" {
                members.push((key.into_owned(), build_value(&mut tokens, value)?));
            } else if runs.is_none() {
                runs = Some(decode_runs(&mut tokens, value)?);
            } else {
                // Only the first of duplicate keys counts.
                skip_value(&mut tokens, &value)?;
            }
        }
        tokens.finish()?;
        Ok(Self {
            doc: Json::Obj(members),
            runs: PostedRuns(runs),
        })
    }
}

impl PostedRuns {
    /// Whether the body has a `"runs"` member, of any type.
    pub fn is_present(&self) -> bool {
        self.0.is_some()
    }

    /// The decoded runs, unvalidated (`/ingest` validates them in the
    /// engine, under its own error prefix).
    pub fn decoded(self) -> Result<Vec<ExperimentRun>, ServiceError> {
        self.0
            .unwrap_or_else(|| Err("body needs a 'runs' array".to_string()))
            .map_err(ServiceError::bad_request)
    }

    /// The decoded runs, each checked by [`ExperimentRun::validate`]
    /// before any handler computes on it.
    pub fn validated(self) -> Result<Vec<ExperimentRun>, ServiceError> {
        let runs = self.decoded()?;
        for (i, run) in runs.iter().enumerate() {
            run.validate()
                .map_err(|e| ServiceError::bad_request(format!("runs[{i}]: {e}")))?;
        }
        Ok(runs)
    }
}

/// Decodes a `"runs"` value whose first event is `first`, reading it to
/// its end. Decoding stops at the first run with a schema error; the
/// rest is only read.
fn decode_runs<'a>(
    tokens: &mut Tokenizer<'a>,
    first: Event<'a>,
) -> Result<Result<Vec<ExperimentRun>, String>, String> {
    if first != Event::BeginArray {
        skip_value(tokens, &first)?;
        return Ok(Err("body needs a 'runs' array".to_string()));
    }
    let mut runs = Ok(Vec::new());
    loop {
        let event = tokens.next_in_value()?;
        if event == Event::EndArray {
            break;
        }
        match &mut runs {
            Ok(list) => match decode_run(tokens, event)? {
                Ok(run) => list.push(run),
                Err(e) => runs = Err(format!("runs[{}]: {e}", list.len())),
            },
            Err(_) => skip_value(tokens, &event)?,
        }
    }
    match runs {
        Ok(list) if list.is_empty() => Ok(Err("'runs' must not be empty".to_string())),
        runs => Ok(runs),
    }
}

#[cfg(test)]
mod tests {
    //! Differential test of the one-pass decode against the path it
    //! replaced: `Json::parse`, then `run_from_json` on each run of the
    //! first `"runs"` member, then [`ExperimentRun::validate`].

    use super::*;
    use crate::corpus::simulated_corpus;
    use crate::http::Request;
    use crate::service::{handle, ServiceState};
    use wp_core::pipeline::PipelineConfig;
    use wp_json::obj;
    use wp_linalg::Rng64;
    use wp_stream::StreamConfig;
    use wp_telemetry::io::{run_from_json, run_to_json};
    use wp_workloads::engine::Simulator;
    use wp_workloads::{benchmarks, Sku};

    const SEED: u64 = 0xB0D1_DEC0;

    /// The replaced path: the body's tree minus its `"runs"` members,
    /// and the runs (validated when `validate`), or the first error.
    fn reference(body: &str, validate: bool) -> Result<(Json, Vec<ExperimentRun>), String> {
        let doc = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("body needs a 'runs' array")?;
        if runs.is_empty() {
            return Err("'runs' must not be empty".to_string());
        }
        let runs = runs
            .iter()
            .enumerate()
            .map(|(i, r)| run_from_json(r).map_err(|e| format!("runs[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        if validate {
            for (i, run) in runs.iter().enumerate() {
                run.validate().map_err(|e| format!("runs[{i}]: {e}"))?;
            }
        }
        let rest = match doc {
            Json::Obj(members) => {
                Json::Obj(members.into_iter().filter(|(k, _)| k != "runs").collect())
            }
            other => other,
        };
        Ok((rest, runs))
    }

    fn decoded(body: &str, validate: bool) -> Result<(Json, Vec<ExperimentRun>), String> {
        let PostBody { doc, runs } = PostBody::parse(body).map_err(|e| e.message)?;
        let runs = if validate {
            runs.validated()
        } else {
            runs.decoded()
        };
        Ok((doc, runs.map_err(|e| e.message)?))
    }

    /// Every field of a run, floats as bits.
    fn bits(run: &ExperimentRun) -> (String, Vec<u64>, Vec<String>) {
        let floats = [
            run.resources.data.as_slice(),
            &[run.resources.sample_interval_secs][..],
            run.plans.data.as_slice(),
            &[run.throughput, run.latency_ms][..],
            &run.per_query_latency_ms,
        ]
        .concat();
        let shape = format!(
            "{} {}x{} {}x{}",
            run.key,
            run.resources.data.rows(),
            run.resources.data.cols(),
            run.plans.data.rows(),
            run.plans.data.cols()
        );
        (
            shape,
            floats.iter().map(|x| x.to_bits()).collect(),
            run.plans.query_names.clone(),
        )
    }

    fn assert_same(body: &str, label: &str) -> bool {
        let mut ok = false;
        for validate in [false, true] {
            match (reference(body, validate), decoded(body, validate)) {
                (Err(want), Err(got)) => assert_eq!(got, want, "{label}: {body}"),
                (Ok((want_doc, want)), Ok((got_doc, got))) => {
                    assert_eq!(got_doc, want_doc, "{label}: {body}");
                    let want: Vec<_> = want.iter().map(bits).collect();
                    let got: Vec<_> = got.iter().map(bits).collect();
                    assert_eq!(got, want, "{label}: {body}");
                    ok = true;
                }
                (want, got) => panic!(
                    "{label}: verdicts differ: reference {:?}, decode {:?}\n{body}",
                    want.map(|_| ()),
                    got.map(|_| ())
                ),
            }
        }
        ok
    }

    fn runs(rng: &mut Rng64) -> Vec<ExperimentRun> {
        let mut sim = Simulator::new(rng.next_u64());
        sim.config.samples = 6 + rng.below(10);
        let specs = benchmarks::standardized();
        (0..1 + rng.below(3))
            .map(|r| {
                let spec = &specs[rng.below(specs.len())];
                sim.simulate(spec, &Sku::new("cpu2", 2, 64.0), 8, r, r % 3)
            })
            .collect()
    }

    fn scrap(rng: &mut Rng64) -> Json {
        match rng.below(5) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 => Json::Str("dup \u{e9}".to_string()),
            3 => Json::Arr(vec![Json::Num(1.5), obj! { "x" => "y" }]),
            _ => Json::Num(-7.25),
        }
    }

    /// Shuffles members, appends later duplicates (which must lose) and
    /// inserts unknown members, at every object level.
    fn vary(rng: &mut Rng64, value: &mut Json) {
        match value {
            Json::Arr(items) => items.iter_mut().for_each(|v| vary(rng, v)),
            Json::Obj(members) => {
                members.iter_mut().for_each(|(_, v)| vary(rng, v));
                rng.shuffle(members);
                for _ in 0..rng.below(3) {
                    if members.is_empty() {
                        break;
                    }
                    let at = rng.below(members.len());
                    let key = members[at].0.clone();
                    let later = at + 1 + rng.below(members.len() - at);
                    members.insert(later, (key, scrap(rng)));
                }
                for n in 0..rng.below(3) {
                    let at = rng.below(members.len() + 1);
                    members.insert(at, (format!("unknown_{n}"), scrap(rng)));
                }
            }
            _ => {}
        }
    }

    /// Object members in `value`, nested ones included.
    fn members(value: &Json) -> usize {
        match value {
            Json::Arr(items) => items.iter().map(members).sum(),
            Json::Obj(m) => m.len() + m.iter().map(|(_, v)| members(v)).sum::<usize>(),
            _ => 0,
        }
    }

    /// Drops or swaps for an ill-typed value the members whose visit
    /// numbers are in `picks`, counting from `*at`.
    fn poison_at(rng: &mut Rng64, value: &mut Json, at: &mut usize, picks: &[usize]) {
        match value {
            Json::Arr(items) => items.iter_mut().for_each(|v| poison_at(rng, v, at, picks)),
            Json::Obj(m) => {
                let mut i = 0;
                while i < m.len() {
                    *at += 1;
                    if picks.contains(&(*at - 1)) {
                        if rng.below(2) == 0 {
                            m.remove(i);
                            continue;
                        }
                        m[i].1 = scrap(rng);
                    }
                    poison_at(rng, &mut m[i].1, at, picks);
                    i += 1;
                }
            }
            _ => {}
        }
    }

    /// Poisons two distinct members anywhere in one of the runs, so two
    /// schema errors meet and their precedence shows.
    fn poison(rng: &mut Rng64, runs: &mut Json) {
        let Json::Arr(runs) = runs else { return };
        let run = rng.below(runs.len());
        let n = members(&runs[run]);
        let first = rng.below(n);
        let second = (first + 1 + rng.below(n - 1)) % n;
        poison_at(rng, &mut runs[run], &mut 0, &[first, second]);
    }

    /// Serializes with random whitespace, `\u` escapes for letters, and
    /// plain, exponent and `E+` forms of each number.
    fn write(rng: &mut Rng64, value: &Json, out: &mut String) {
        let ws = |rng: &mut Rng64, out: &mut String| {
            if rng.below(8) == 0 {
                out.push_str([" ", "\n", "\t ", "\r\n  "][rng.below(4)]);
            }
        };
        ws(rng, out);
        match value {
            Json::Num(x) => {
                let plain = Json::Num(*x).compact();
                let text = match rng.below(4) {
                    0 => format!("{x:e}"),
                    1 => format!("{x:E}").replacen("E", "E+", 1).replace("E+-", "E-"),
                    _ => plain,
                };
                out.push_str(&text);
            }
            Json::Str(s) => {
                out.push('"');
                for c in Json::Str(s.clone()).compact().trim_matches('"').chars() {
                    if c.is_ascii_alphabetic() && rng.below(6) == 0 {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    } else {
                        out.push(c);
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(rng, item, out);
                }
                ws(rng, out);
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(rng, &Json::Str(k.clone()), out);
                    ws(rng, out);
                    out.push(':');
                    write(rng, v, out);
                }
                ws(rng, out);
                out.push('}');
            }
            other => out.push_str(&other.compact()),
        }
        ws(rng, out);
    }

    fn valid_body(rng: &mut Rng64) -> String {
        body(rng, false)
    }

    fn body(rng: &mut Rng64, poisoned: bool) -> String {
        let mut runs = Json::Arr(runs(rng).iter().map(run_to_json).collect());
        if poisoned {
            poison(rng, &mut runs);
        }
        let mut body = obj! { "runs" => runs, "mode" => "exact", "slo" => 12.5 };
        vary(rng, &mut body);
        let mut text = String::new();
        write(rng, &body, &mut text);
        text
    }

    /// Flips, splices, truncations, deletions and insertions.
    fn mutate(rng: &mut Rng64, body: &str) -> String {
        let mut bytes = body.as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len().max(1));
            match rng.below(5) {
                0 if !bytes.is_empty() => bytes[at] ^= 1 << rng.below(8),
                1 => {
                    let from = rng.below(bytes.len().max(1));
                    let len = rng.below(40).min(bytes.len() - from);
                    let piece = bytes[from..from + len].to_vec();
                    bytes.splice(at..at, piece);
                }
                2 => bytes.truncate(at),
                3 if !bytes.is_empty() => drop(bytes.remove(at)),
                _ => bytes.insert(at, b"{}[],:\"\\-.e0 "[rng.below(13)]),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn valid_bodies_decode_to_bit_identical_runs() {
        let mut rng = Rng64::new(SEED);
        for case in 0..60 {
            let body = valid_body(&mut rng);
            assert!(
                assert_same(&body, &format!("case {case}")),
                "case {case} must decode"
            );
        }
    }

    #[test]
    fn mutants_fail_with_identical_errors() {
        let mut rng = Rng64::new(SEED ^ 0x5EED);
        let mut failures = 0;
        for case in 0..400 {
            let body = valid_body(&mut rng);
            let mutant = mutate(&mut rng, &body);
            failures += usize::from(!assert_same(&mutant, &format!("mutant {case}")));
        }
        assert!(
            failures > 200,
            "mutation rate too cold: {failures} of 400 failed"
        );
    }

    #[test]
    fn schema_poisons_fail_with_identical_errors() {
        let mut rng = Rng64::new(SEED ^ 0x5C4E);
        let mut failures = 0;
        for case in 0..300 {
            let body = body(&mut rng, true);
            failures += usize::from(!assert_same(&body, &format!("poison {case}")));
        }
        assert!(failures > 150, "poisons too mild: {failures} of 300 failed");
    }

    /// A schema error early in `"runs"` never hides a syntax error later
    /// in the body: the tree path reports the syntax error, and so must
    /// the one-pass decode.
    #[test]
    fn syntax_errors_win_over_earlier_schema_errors() {
        let mut rng = Rng64::new(SEED ^ 0x0DE7);
        let run = run_to_json(&runs(&mut rng)[0]).compact();
        let bad_run = run.replacen("\"terminals\":8", "\"terminals\":-1", 1);
        assert_ne!(bad_run, run);
        for body in [
            format!("{{\"runs\":[{bad_run},{run}],\"mode\":tru}}"),
            format!("{{\"runs\":[{bad_run},{run}] \"k\":1}}"),
            format!("{{\"runs\":[{bad_run},{{\"key\":[1,]}}]}}"),
            format!("{{\"runs\":[{bad_run}]}}trailing"),
            format!("{{\"runs\":[{bad_run}],\"runs\":[}}"),
            "{\"runs\":7,\"x\":\"\\q\"}".to_string(),
            format!("{{\"runs\":[{bad_run}]"),
        ] {
            let got = decoded(&body, true).expect_err("must fail");
            assert!(got.starts_with("invalid JSON body: "), "{got}");
            assert_same(&body, "schema before syntax");
        }
    }

    /// The same decode errors reach the wire as byte-identical 400
    /// bodies on every endpoint that decodes runs.
    #[test]
    fn decode_errors_are_byte_identical_400_bodies() {
        let config = PipelineConfig {
            selection: wp_featsel::Strategy::FAnova,
            ..PipelineConfig::default()
        };
        let state = ServiceState::new(
            simulated_corpus(0xEDB7_2025, 30),
            config,
            Some(1),
            16,
            StreamConfig::default(),
        )
        .unwrap();
        let mut rng = Rng64::new(SEED ^ 0x400);
        let mut compared = 0;
        for _ in 0..150 {
            let body = valid_body(&mut rng);
            let mutant = mutate(&mut rng, &body);
            let Err(message) = reference(&mutant, true) else {
                continue;
            };
            compared += 1;
            for path in ["/similar", "/predict", "/fingerprint"] {
                let request = Request {
                    method: "POST".to_string(),
                    path: path.to_string(),
                    body: mutant.clone(),
                    keep_alive: true,
                };
                let want = obj! { "error" => message.clone() }.compact();
                assert_eq!(handle(&state, &request), (400, want), "{path}: {mutant}");
            }
        }
        assert!(compared > 50, "only {compared} mutants failed to decode");
    }
}
