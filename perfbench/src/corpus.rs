//! Seeded, deterministic request lists for the three workloads.
//!
//! Everything here is a pure function of the workload seed (and of the
//! run's fixed work size), so the same seed always yields byte-identical
//! sources in the same order. Generation happens before any clock starts.

use crate::verdict::Expect;
use astree_gen::{generate, line_count, BugKind, GenConfig};

/// SplitMix64: a tiny, dependency-free stream for the benchmark's own draws
/// (which members, which bug kind, which channel, which constant).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5bd1_e995_9e37_79b9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

pub const BUG_KINDS: [BugKind; 3] =
    [BugKind::DivByZero, BugKind::OutOfBounds, BugKind::IntOverflow];

/// One program to analyze, with the generator's known answer.
#[derive(Debug, Clone)]
pub struct Request {
    pub name: String,
    pub source: String,
    pub expect: Expect,
    /// Channel count of the family member the source derives from.
    pub channels: usize,
    /// Source size, `gen::line_count` / 1000.
    pub kloc: f64,
}

/// Generates one family member.
pub fn member(channels: usize, seed: u64, bug: Option<BugKind>) -> Request {
    let source = generate(&GenConfig { channels, seed, bug });
    let tag = match bug {
        None => "clean",
        Some(BugKind::DivByZero) => "div0",
        Some(BugKind::OutOfBounds) => "oob",
        Some(BugKind::IntOverflow) => "overflow",
    };
    Request {
        name: format!("c{channels}-s{seed}-{tag}"),
        kloc: line_count(&source) as f64 / 1000.0,
        source,
        expect: bug.map_or(Expect::Clean, Expect::Bug),
        channels,
    }
}

/// Channel counts of the cold ladder, smallest first (the Fig. 2 ladder,
/// doubling up to where per-kLOC analysis time starts to grow). An odd
/// rung count puts the median request in the middle rung's group.
pub const LADDER_RUNGS: [usize; 7] = [2, 4, 8, 16, 24, 32, 48];

/// `passes` passes over the ladder, each with fresh generator seeds; one
/// member per pass carries a bug, the kinds rotating so every `BugKind`
/// appears once three passes are made.
pub fn ladder(seed: u64, passes: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for pass in 0..passes {
        let buggy_rung = rng.below(LADDER_RUNGS.len());
        for (r, &channels) in LADDER_RUNGS.iter().enumerate() {
            let bug = (r == buggy_rung).then_some(BUG_KINDS[pass % BUG_KINDS.len()]);
            out.push(member(channels, rng.next_u64() % 1_000_000, bug));
        }
    }
    out
}

/// Channel count of every edit_serve base member: one size, so every edit
/// request is the same kind of work.
pub const EDIT_CHANNELS: usize = 12;
/// Base members per client connection; the last one of each half carries a
/// bug, so a quarter of all edit requests expect exactly one alarm.
pub const EDIT_BASES_PER_CONN: usize = 4;

/// The edit_serve base set: two disjoint halves, one per connection.
pub fn edit_bases(seed: u64) -> [Vec<Request>; 2] {
    let mut rng = Rng::new(seed ^ 0xed17);
    let mut half = || {
        (0..EDIT_BASES_PER_CONN)
            .map(|i| {
                let bug =
                    (i + 1 == EDIT_BASES_PER_CONN).then(|| BUG_KINDS[rng.below(BUG_KINDS.len())]);
                member(EDIT_CHANNELS, rng.next_u64() % 1_000_000, bug)
            })
            .collect::<Vec<_>>()
    };
    [half(), half()]
}

/// Every contraction constant an edit may write, in thousandths: inside the
/// generator's own range [0.05, 0.40) and with a non-zero third decimal, so
/// no edit reproduces a generated (two-decimal) value.
pub fn edit_values(seed: u64) -> Vec<u32> {
    let mut values: Vec<u32> = (50..400).filter(|v| v % 10 != 0).collect();
    Rng::new(seed ^ 0x0c0f_f5e7).shuffle(&mut values);
    values
}

/// Rewrites channel `channel`'s contraction constant in `step{channel}` to
/// `milli`/1000. The result differs from `base` in exactly that one line.
pub fn edit_source(base: &str, channel: usize, milli: u32) -> String {
    let prefix = format!("    integ{channel} = integ{channel} - ");
    let suffix = format!(" * integ{channel} + in{channel};");
    let mut hits = 0;
    let lines: Vec<String> = base
        .lines()
        .map(|line| match line.strip_prefix(&prefix).and_then(|r| r.strip_suffix(&suffix)) {
            Some(_) => {
                hits += 1;
                format!("{prefix}0.{milli:03}{suffix}")
            }
            None => line.to_string(),
        })
        .collect();
    assert_eq!(hits, 1, "channel {channel} has exactly one contraction line");
    let mut out = lines.join("\n");
    if base.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// Edit requests for both connections: request `i` of connection `c` edits
/// base `i % EDIT_BASES_PER_CONN` of half `c`, a seeded channel, and writes
/// the value at pool position `offset + 2i + c`. Values are never reused
/// within a run, so no two requests share an edited body and the seeds a
/// request finds do not depend on how the connections interleave.
pub fn edit_requests(
    bases: &[Vec<Request>; 2],
    values: &[u32],
    offset: usize,
    per_conn: usize,
    seed: u64,
) -> [Vec<Request>; 2] {
    assert!(offset + 2 * per_conn <= values.len(), "edit value pool exhausted");
    let mut rng = Rng::new(seed ^ 0xed17_0000 ^ offset as u64);
    let mut conns: [Vec<Request>; 2] = [Vec::new(), Vec::new()];
    for i in 0..per_conn {
        for (c, half) in bases.iter().enumerate() {
            let base = &half[i % half.len()];
            let channel = rng.below(base.channels);
            let milli = values[offset + 2 * i + c];
            let source = edit_source(&base.source, channel, milli);
            conns[c].push(Request {
                name: format!("{}-ch{channel}-k0.{milli:03}", base.name),
                kloc: line_count(&source) as f64 / 1000.0,
                source,
                expect: base.expect,
                channels: base.channels,
            });
        }
    }
    conns
}

/// Channel counts of the family_fleet family, in the ascending order the
/// cold pass submits them (cross-member seed transfer flows small → large).
pub const FAMILY_CHANNELS: [usize; 5] = [4, 6, 8, 12, 16];

/// The fleet's family: one generator seed shared by every member (so their
/// channels share text and seeds transfer), the second-largest member
/// carrying a division by zero. The bug kind is fixed: the three kinds
/// leave stores of different sizes, which would make peak RSS depend on
/// the seed.
pub fn family(seed: u64) -> Vec<Request> {
    let gen_seed = Rng::new(seed ^ 0xf1ee7).next_u64() % 1_000_000;
    let n = FAMILY_CHANNELS.len();
    FAMILY_CHANNELS
        .iter()
        .enumerate()
        .map(|(i, &c)| member(c, gen_seed, (i + 2 == n).then_some(BugKind::DivByZero)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sources(reqs: &[Request]) -> Vec<&str> {
        reqs.iter().map(|r| r.source.as_str()).collect()
    }

    #[test]
    fn same_seed_same_lists_different_seed_different_lists() {
        assert_eq!(sources(&ladder(7, 2)), sources(&ladder(7, 2)));
        assert_ne!(sources(&ladder(7, 2)), sources(&ladder(8, 2)));
        assert_eq!(sources(&family(7)), sources(&family(7)));
        assert_ne!(sources(&family(7)), sources(&family(8)));
        let edits = |seed| {
            let bases = edit_bases(seed);
            edit_requests(&bases, &edit_values(seed), 0, 6, seed)
        };
        let (a, b, c) = (edits(7), edits(7), edits(8));
        for k in 0..2 {
            assert_eq!(sources(&a[k]), sources(&b[k]));
            assert_ne!(sources(&a[k]), sources(&c[k]));
        }
    }

    #[test]
    fn ladder_covers_every_bug_kind_at_a_fixed_share() {
        let reqs = ladder(3, 3);
        assert_eq!(reqs.len(), 3 * LADDER_RUNGS.len());
        let bugs: Vec<Expect> =
            reqs.iter().map(|r| r.expect).filter(|e| *e != Expect::Clean).collect();
        assert_eq!(bugs, BUG_KINDS.iter().map(|&k| Expect::Bug(k)).collect::<Vec<_>>());
    }

    #[test]
    fn an_edit_changes_exactly_one_line() {
        let base = member(5, 11, None);
        for channel in 0..5 {
            let edited = edit_source(&base.source, channel, 123);
            let (a, b): (Vec<_>, Vec<_>) =
                (base.source.lines().collect(), edited.lines().collect());
            assert_eq!(a.len(), b.len());
            let diff: Vec<_> = a.iter().zip(&b).filter(|(x, y)| x != y).collect();
            assert_eq!(diff.len(), 1, "channel {channel}");
            assert!(diff[0].1.contains(" 0.123 * integ"), "{}", diff[0].1);
        }
    }

    /// The text of `step{channel}`'s body, from its header to the closing
    /// brace at column 0.
    fn step_body(source: &str, channel: usize) -> String {
        let header = format!("void step{channel}(void) {{");
        let start = source.find(&header).expect("step function present");
        let len = source[start..].find("\n}\n").expect("step function closes");
        source[start..start + len].to_string()
    }

    #[test]
    fn no_two_edit_requests_share_an_edited_body() {
        let seed = 5;
        let bases = edit_bases(seed);
        let values = edit_values(seed);
        let per_conn = values.len() / 4;
        let mut bodies = HashSet::new();
        for offset in [0, 2 * per_conn] {
            let conns = edit_requests(&bases, &values, offset, per_conn, seed);
            for (c, reqs) in conns.iter().enumerate() {
                for (i, req) in reqs.iter().enumerate() {
                    let base = &bases[c][i % EDIT_BASES_PER_CONN];
                    let changed: Vec<usize> = (0..base.channels)
                        .filter(|&ch| step_body(&req.source, ch) != step_body(&base.source, ch))
                        .collect();
                    assert_eq!(changed.len(), 1, "{}", req.name);
                    assert!(bodies.insert(step_body(&req.source, changed[0])), "{}", req.name);
                }
            }
        }
        assert_eq!(bodies.len(), 4 * per_conn);
    }

    #[test]
    fn edit_values_stay_in_the_generator_range_and_are_distinct() {
        let values = edit_values(1);
        assert_eq!(values.iter().collect::<HashSet<_>>().len(), values.len());
        assert!(values.iter().all(|&v| (50..400).contains(&v) && v % 10 != 0));
    }
}
