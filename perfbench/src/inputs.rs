//! Seeded inputs: realistic distinct utterances with gold programs, Zipf
//! draws over training-distribution commands, and skill-delta sequences.
//! Everything is a pure function of the workload seed; [`Digest`]
//! fingerprints what was generated so a seed's inputs can be compared
//! across runs.

use std::collections::HashSet;

use genie::dataset::Example;
use genie::evaldata::{cheatsheet_data, developer_data, EvalDataConfig};
use genie_server::json::{escape, Json};
use thingpedia::Thingpedia;

/// SplitMix64: a small, seedable, well-mixed generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a 64 over everything a workload generated.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &byte in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The cache key the engine uses is the tokenization, so distinctness is
/// judged on it, not on the raw text.
fn token_key(text: &str) -> String {
    genie_nlp::tokenize(text).join(" ")
}

/// A realistic utterance with its gold program.
#[derive(Debug, Clone)]
pub struct Utterance {
    pub text: String,
    pub example: Example,
}

/// Distinct developer and cheatsheet utterances (`genie::evaldata`), in
/// seeded order, generated in chunks as the workload consumes them.
pub struct UniquePool {
    seed: u64,
    chunks: u64,
    seen: HashSet<String>,
    pub items: Vec<Utterance>,
}

/// Utterances per evaldata call (each of developer and cheatsheet data).
const CHUNK: usize = 2000;

impl UniquePool {
    pub fn new(seed: u64) -> UniquePool {
        UniquePool {
            seed,
            chunks: 0,
            seen: HashSet::new(),
            items: Vec::new(),
        }
    }

    /// Grow the pool to at least `n` distinct utterances.
    pub fn ensure(&mut self, library: &Thingpedia, n: usize) {
        while self.items.len() < n {
            let chunk_seed = self
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(self.chunks.wrapping_mul(7919) + 9000);
            self.chunks += 1;
            let config = EvalDataConfig {
                size: CHUNK,
                seed: chunk_seed,
            };
            let mut fresh: Vec<Utterance> = developer_data(library, config)
                .examples
                .into_iter()
                .chain(cheatsheet_data(library, config).examples)
                .map(|example| Utterance {
                    text: example.text(),
                    example,
                })
                .collect();
            Rng::new(chunk_seed).shuffle(&mut fresh);
            for utterance in fresh {
                if self.seen.insert(token_key(&utterance.text)) {
                    self.items.push(utterance);
                }
            }
        }
    }
}

/// A seeded Zipf(s) draw over `n` ranks.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(exponent);
                total
            })
            .collect();
        for value in &mut cdf {
            *value /= total;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `count` distinct commands drawn by seed from `examples`, most popular
/// first.
pub fn repeat_commands(examples: &[Example], count: usize, seed: u64) -> Vec<Utterance> {
    let mut order: Vec<usize> = (0..examples.len()).collect();
    Rng::new(seed ^ 0x5eed).shuffle(&mut order);
    let mut seen = HashSet::new();
    order
        .into_iter()
        .map(|i| Utterance {
            text: examples[i].text(),
            example: examples[i].clone(),
        })
        .filter(|u| seen.insert(token_key(&u.text)))
        .take(count)
        .collect()
}

/// What a skill delta does to the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Re-words an existing class's template: pool lengths stay, so the
    /// synthesis memo is reused.
    ContentEdit,
    /// Adds or removes a class: pool lengths change, forcing a full
    /// rebuild.
    Structural,
}

/// One `POST /v1/admin/reload` body.
#[derive(Debug, Clone)]
pub struct Delta {
    pub kind: DeltaKind,
    pub body: String,
}

/// Every `STRUCTURAL_EVERY`-th delta adds or removes a class.
pub const STRUCTURAL_EVERY: usize = 4;
/// Bench classes in the initial library.
pub const INITIAL_CLASSES: usize = 2;

const PLACES: [&str; 8] = [
    "kitchen", "hallway", "garage", "attic", "porch", "studio", "cellar", "nursery",
];
const DEVICES: [&str; 8] = [
    "lamp",
    "fan",
    "heater",
    "speaker",
    "blinds",
    "kettle",
    "sprinkler",
    "doorbell",
];

fn class_source(id: usize) -> String {
    format!("class @com.bench.dev{id} {{ action set_mode(in req mode : Enum(on, off)); }}")
}

fn upsert_body(id: usize, wording: &str) -> String {
    format!(
        "{{\"op\": \"upsert\", \"class\": {}, \"templates\": [{{\"category\": \"vp\", \
         \"function\": \"set_mode\", \"utterance\": {}}}], \"mode\": \"full\", \"wait\": true}}",
        escape(&class_source(id)),
        escape(wording)
    )
}

fn wording(rng: &mut Rng, id: usize) -> String {
    format!(
        "switch the {} {} {id} $mode",
        PLACES[rng.below(PLACES.len())],
        DEVICES[rng.below(DEVICES.len())]
    )
}

/// The bodies that install the initial bench classes.
pub fn initial_class_bodies() -> Vec<String> {
    (0..INITIAL_CLASSES)
        .map(|id| upsert_body(id, &format!("switch the bench device {id} $mode")))
        .collect()
}

/// Generates a seeded delta sequence: mostly content edits of a random
/// bench class, and every [`STRUCTURAL_EVERY`]-th delta alternately adds a
/// new class or removes the one added last.
pub struct DeltaPlan {
    rng: Rng,
    classes: Vec<usize>,
    next_id: usize,
    issued: usize,
    current: Vec<String>,
}

impl DeltaPlan {
    pub fn new(seed: u64) -> DeltaPlan {
        DeltaPlan {
            rng: Rng::new(seed ^ 0xde17a),
            classes: (0..INITIAL_CLASSES).collect(),
            next_id: INITIAL_CLASSES,
            issued: 0,
            current: (0..INITIAL_CLASSES)
                .map(|id| format!("bench device {id}"))
                .collect(),
        }
    }
}

impl Iterator for DeltaPlan {
    type Item = Delta;

    fn next(&mut self) -> Option<Delta> {
        let index = self.issued;
        self.issued += 1;
        if index % STRUCTURAL_EVERY == STRUCTURAL_EVERY - 1 {
            let structural = index / STRUCTURAL_EVERY;
            let body = if structural.is_multiple_of(2) {
                let id = self.next_id;
                self.next_id += 1;
                self.classes.push(id);
                let text = wording(&mut self.rng, id);
                self.current.push(text.clone());
                upsert_body(id, &text)
            } else {
                let id = self
                    .classes
                    .pop()
                    .expect("a class added by the previous structural delta");
                self.current.pop();
                format!(
                    "{{\"op\": \"remove\", \"class\": \"com.bench.dev{id}\", \"mode\": \"full\", \
                     \"wait\": true}}"
                )
            };
            return Some(Delta {
                kind: DeltaKind::Structural,
                body,
            });
        }
        let slot = self.rng.below(self.classes.len());
        let id = self.classes[slot];
        let mut text = wording(&mut self.rng, id);
        while text == self.current[slot] {
            text = wording(&mut self.rng, id);
        }
        self.current[slot] = text.clone();
        Some(Delta {
            kind: DeltaKind::ContentEdit,
            body: upsert_body(id, &text),
        })
    }
}

/// Apply a reload body to a library in-process, exactly as the server
/// decodes it.
pub fn apply_body(library: &mut Thingpedia, body: &str) {
    let json = Json::parse(body).expect("a generated delta body is valid JSON");
    let (delta, _) =
        genie_server::admin::skill_delta_from_json(&json).expect("a generated delta body decodes");
    match delta {
        genie::live::SkillDelta::Upsert { class, templates } => {
            library.upsert_class(class, templates);
        }
        genie::live::SkillDelta::Remove { name } => {
            library.remove_class(&name);
        }
    }
}

/// The initial served library: the builtin skills plus the bench classes.
pub fn initial_library() -> Thingpedia {
    let mut library = Thingpedia::builtin();
    for body in initial_class_bodies() {
        apply_body(&mut library, &body);
    }
    library
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_digest(seed: u64) -> u64 {
        let mut pool = UniquePool::new(seed);
        pool.ensure(&Thingpedia::builtin(), 500);
        let mut digest = Digest::new();
        for utterance in &pool.items[..500] {
            digest.add(utterance.text.as_bytes());
        }
        for delta in DeltaPlan::new(seed).take(12) {
            digest.add(delta.body.as_bytes());
        }
        digest.value()
    }

    #[test]
    fn the_seed_alone_determines_the_inputs() {
        assert_eq!(unique_digest(11), unique_digest(11));
        assert_ne!(unique_digest(11), unique_digest(12));
    }

    #[test]
    fn unique_utterances_are_distinct_by_tokenization() {
        let mut pool = UniquePool::new(3);
        pool.ensure(&Thingpedia::builtin(), 2 * CHUNK + 1);
        let keys: HashSet<String> = pool.items.iter().map(|u| token_key(&u.text)).collect();
        assert_eq!(keys.len(), pool.items.len());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(256, 1.0);
        let mut rng = Rng::new(5);
        let draws: Vec<usize> = (0..20_000).map(|_| zipf.draw(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count() as f64 / draws.len() as f64;
        // 1 / H(256) ≈ 0.163.
        assert!((top - 0.163).abs() < 0.02, "top share {top}");
        assert!(draws.iter().all(|&r| r < 256));
    }

    #[test]
    fn delta_plan_mixes_content_edits_and_structural_changes() {
        let deltas: Vec<Delta> = DeltaPlan::new(9).take(16).collect();
        let structural: Vec<usize> = deltas
            .iter()
            .enumerate()
            .filter(|(_, d)| d.kind == DeltaKind::Structural)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(structural, vec![3, 7, 11, 15]);
        assert!(deltas[3].body.contains("dev2") && deltas[7].body.contains("\"remove\""));
        let mut library = initial_library();
        let before = library.classes().count();
        for delta in &deltas[..4] {
            apply_body(&mut library, &delta.body);
        }
        assert_eq!(library.classes().count(), before + 1);
    }
}
