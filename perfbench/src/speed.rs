//! The host-speed probe.
//!
//! The vCPU of the reference host alternates, in stretches of seconds,
//! between a fast mode and one about 1.45x slower, and its speed also drifts
//! over minutes; raw wall times of identical code then differ by 20-30 %
//! between runs. So the load generator runs this fixed kernel while no
//! request is in flight, before and after every round of requests, and
//! scales that round's times by `REFERENCE_MS / probe time`: every reported
//! time is "as if the probe took its reference time". The kernel is
//! benchmark code, compiled the same for every revision of the analyzer, and
//! mimics the analyzer's hot loops: path-copying inserts into persistent
//! search trees (as `pmap` does), and interval joins on `f64` pairs. Its
//! arena is a mapping of its own, so the analyzer's heap state does not
//! touch its speed.

use std::hint::black_box;
use std::time::Instant;

/// Mean kernel time, in ms, that normalised times are scaled to (one kernel
/// run's fast-mode time on the 2-vCPU reference host).
pub const REFERENCE_MS: f64 = 3.5;

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node {
    left: u32,
    right: u32,
    key: u32,
    lo: f64,
    hi: f64,
}

/// Kernel runs per thread in one probe.
const RUNS: usize = 6;

/// Probes the host: the kernel `RUNS` times on each of `threads` threads at
/// once (as many as the workload's analyzer keeps busy: the vCPUs change
/// speed independently); returns the mean kernel time in ms. Each thread
/// first runs the kernel once untimed, so the timed runs find their arena
/// paged in and time the CPU, not page faults.
pub fn probe(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut arena = Arena::new();
                    black_box(kernel(&mut arena));
                    (0..RUNS)
                        .map(|_| {
                            arena.len = 0;
                            let t0 = Instant::now();
                            black_box(kernel(&mut arena));
                            t0.elapsed().as_secs_f64() * 1e3
                        })
                        .sum::<f64>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("probe thread panicked")).collect()
    });
    times.iter().sum::<f64>() / (RUNS * threads) as f64
}

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

/// The kernel's nodes, in a private anonymous mapping of their own rather
/// than on the heap: unmapped when dropped, so a probe leaves nothing
/// resident to count towards the analyzer's peak RSS, and shares no
/// allocator state with the analyzer. Setting `len` to 0 reuses it.
struct Arena {
    nodes: *mut Node,
    len: usize,
}

impl Arena {
    const BYTES: usize = ARENA_NODES * std::mem::size_of::<Node>();

    fn new() -> Arena {
        // SAFETY: an anonymous private mapping of a fixed size, no address hint.
        let p = unsafe {
            mmap(std::ptr::null_mut(), Self::BYTES, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS, -1, 0)
        };
        assert!(p as isize != -1, "mmap failed: {}", std::io::Error::last_os_error());
        Arena { nodes: p.cast(), len: 0 }
    }

    fn push(&mut self, n: Node) -> u32 {
        assert!(self.len < ARENA_NODES, "probe arena full");
        // SAFETY: `len < ARENA_NODES`, so the slot lies inside the mapping.
        unsafe { self.nodes.add(self.len).write(n) };
        self.len += 1;
        (self.len - 1) as u32
    }

    fn get(&self, i: u32) -> Node {
        assert!((i as usize) < self.len, "probe arena index out of range");
        // SAFETY: slots below `len` lie inside the mapping and were written.
        unsafe { self.nodes.add(i as usize).read() }
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        // SAFETY: `nodes` is the start of a mapping of `BYTES` bytes that
        // nothing else refers to.
        unsafe { munmap(self.nodes.cast(), Self::BYTES) };
    }
}

const INSERTS: u64 = 16_000;
/// Path copies of 16 random trees of up to 4096 keys stay below this.
const ARENA_NODES: usize = 512 * 1024;

fn insert(arena: &mut Arena, root: u32, key: u32, lo: f64, hi: f64) -> u32 {
    if root == NIL {
        return arena.push(Node { left: NIL, right: NIL, key, lo, hi });
    }
    let mut n = arena.get(root);
    if key < n.key {
        n.left = insert(arena, n.left, key, lo, hi);
    } else if key > n.key {
        n.right = insert(arena, n.right, key, lo, hi);
    } else {
        n.lo = n.lo.min(lo);
        n.hi = n.hi.max(hi);
    }
    arena.push(n)
}

fn kernel(arena: &mut Arena) -> u64 {
    let mut roots = [NIL; 16];
    let mut s: u64 = 0x9e37_79b9;
    let mut acc = 0u64;
    for i in 0..INSERTS {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let slot = (s >> 60) as usize;
        let key = ((s >> 33) % 4096) as u32;
        let x = i as f64 * 0.5;
        roots[slot] = insert(arena, roots[slot], key, -x, x + 1.0);
        acc = acc.wrapping_add(arena.get(roots[slot]).hi as u64);
    }
    acc ^ arena.len as u64
}
