//! Self-test of the benchmark: its printed vocabulary matches
//! `BENCHMARK.json`, a lost chunk is counted as a failure, and every
//! generation's content is new to the store.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::process::Command;

use replidedup_buf::Chunk;
use replidedup_core::HealStage;
use replidedup_hash::{ChunkHasher, Fingerprint, Sha1ChunkHasher};
use replidedup_perfbench::metrics;
use replidedup_perfbench::workload::{find, run_lane, Bed, Inputs, CHUNK_SIZE, COLL, WORKLOADS};
use replidedup_storage::Cluster;

/// A JSON value: just enough of a parser for `BENCHMARK.json` and the
/// benchmark's result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut kv = Vec::new();
                if self.peek() != b'}' {
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        kv.push((k, self.value()));
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b'}');
                Json::Obj(kv)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() != b']' {
                    loop {
                        items.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).expect("ASCII token") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n:?}"))),
                }
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/"))
}

/// `(name, unit)` pairs of a `BENCHMARK.json` metric list.
fn listed(section: &Json) -> Vec<(String, String)> {
    section
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn owned(table: Vec<(String, &'static str)>) -> Vec<(String, String)> {
    table.into_iter().map(|(n, u)| (n, u.to_string())).collect()
}

#[test]
fn vocabulary_matches_benchmark_json() {
    let b = benchmark_json();
    assert_eq!(listed(b.get("end_to_end")), owned(metrics::end_to_end()));
    assert_eq!(listed(b.get("per_layer")), owned(metrics::per_layer()));
    for m in b.get("end_to_end").arr() {
        assert_eq!(m.get("better").str(), "lower", "{m:?}");
    }
    for m in b.get("per_layer").arr() {
        let name = m.get("name").str();
        // Rates and the pool's hit ratio improve upward; everything else
        // is a time, a count of work or a cost.
        let higher = name.ends_with("_mib_s") || name == "buf.pool_hit_ratio";
        let better = if higher { "higher" } else { "lower" };
        assert_eq!(m.get("better").str(), better, "{name}");
    }
    let names: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
}

/// Run the benchmark binary for a minimal run and return its result line.
fn run_binary(trace: u8) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_replidedup-perfbench"))
        .args([
            "--workload",
            "hpccg-8",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
        ])
        .arg(trace.to_string())
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    (stdout, Json::parse(&last))
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let b = benchmark_json();
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let (stdout, result) = run_binary(trace);
        let Json::Obj(keys) = &result else {
            panic!("result is not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
        let Json::Obj(printed) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        let printed: Vec<(String, String)> = printed
            .iter()
            .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
            .collect();
        assert_eq!(printed, listed(b.get(section)));
        for (name, unit) in &printed {
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&format!("metric {name} = ")))
                .unwrap_or_else(|| panic!("{name} is not printed by name"));
            assert_eq!(line.split(' ').nth(4), Some(unit.as_str()), "{line}");
        }
    }
}

#[test]
fn a_lost_chunk_is_a_counted_failure() {
    let spec = find("hpccg-8").expect("hpccg-8 is a workload");
    let bed = Bed::setup(spec, 9);
    let bufs = bed.inputs.generation(1);
    // Lose rank 0's first chunk on every node between dump and heal.
    let fp: Fingerprint = Sha1ChunkHasher.fingerprint(&bufs[0][..CHUNK_SIZE]);
    let lose_chunk = |cluster: &Cluster| {
        let copies = (0..cluster.node_count())
            .filter(|&n| cluster.quarantine_chunk(n, &fp).expect("node is alive"))
            .count();
        assert!(copies > 0, "the chunk was stored");
    };
    let lane = run_lane(&bed, COLL, 1, false, &lose_chunk);

    assert_eq!(lane.dump.failed, 0);
    assert_eq!(
        lane.restore.wrong, 0,
        "a lost chunk must be a typed error, never wrong bytes"
    );
    assert!(lane.restore.failed >= 1, "the restore reports the loss");
    assert!(
        !lane.heal.healed(),
        "an unrecoverable chunk leaves the heal incomplete"
    );
    assert!(lane
        .heal
        .stage_secs
        .iter()
        .any(|(s, _)| *s == HealStage::Chunks));
    let failed = lane.failed(spec.ranks);
    assert!(
        failed > u64::from(spec.ranks),
        "the heal's ranks and the failed restore are all counted: {failed}"
    );
    assert!(failed <= lane.attempted(spec.ranks));
    assert!(lane.violations.is_empty(), "{:?}", lane.violations);
}

/// Distinct chunk fingerprints across every rank of a generation.
fn fingerprints(bufs: &[Chunk]) -> BTreeSet<Fingerprint> {
    bufs.iter()
        .flat_map(|b| b.chunks(CHUNK_SIZE).map(|c| Sha1ChunkHasher.fingerprint(c)))
        .collect()
}

#[test]
fn every_generation_is_new_content_with_the_same_structure() {
    for spec in WORKLOADS {
        let inputs = Inputs::new(spec, 3);
        let gens: Vec<_> = (1..=3).map(|g| inputs.generation(g)).collect();
        let sets: Vec<_> = gens.iter().map(|g| fingerprints(g)).collect();
        for (i, a) in sets.iter().enumerate() {
            assert_eq!(
                a.len(),
                sets[0].len(),
                "{}: generation {} changed the duplicate structure",
                spec.name,
                i + 1
            );
            for b in &sets[i + 1..] {
                assert!(a.is_disjoint(b), "{}: generations share chunks", spec.name);
            }
        }
        // Same seed, same inputs; another seed, other inputs.
        assert!(Inputs::new(spec, 3).generation(1) == gens[0]);
        assert!(Inputs::new(spec, 4).generation(1) != gens[0]);
    }
}

#[test]
fn every_dump_writes_new_device_bytes() {
    for spec in WORKLOADS {
        let bed = Bed::setup(spec, 11);
        let stored: Vec<u64> = (1..=2)
            .map(|g| {
                // The step flags a dump that adds no device bytes.
                let lane = run_lane(&bed, COLL, g, false, &|_| {});
                assert!(
                    lane.violations.is_empty(),
                    "{}: {:?}",
                    spec.name,
                    lane.violations
                );
                assert_eq!(lane.failed(spec.ranks), 0);
                lane.device_bytes
            })
            .collect();
        let (a, b) = (stored[0] as f64, stored[1] as f64);
        assert!(
            (a - b).abs() <= 0.01 * a,
            "{}: generations stored {a} vs {b} bytes",
            spec.name
        );
    }
}
