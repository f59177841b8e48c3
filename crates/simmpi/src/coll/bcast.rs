//! Binomial-tree broadcast.

use super::CollEnv;

/// Broadcast `data` from communicator rank `root`.
///
/// On the root, `data` is the payload to send (returned unchanged). On
/// non-roots the input is ignored and the received payload is returned —
/// its length is defined by the sender, so a root with a corrupted count
/// propagates a mismatched length that the callers detect.
///
/// `root` must already be validated to be in range; a *divergent* root
/// value across ranks (one rank injected) produces mismatched trees, i.e.
/// deadlock or truncation, exactly like real MPI.
pub fn bcast(env: &CollEnv<'_>, root: usize, data: Vec<u8>) -> Vec<u8> {
    let n = env.n();
    let me = env.me();
    if n <= 1 {
        return data;
    }
    let vrank = (me + n - root) % n;
    let to_abs = |v: usize| (v + root) % n;

    // Receive phase: find the bit that links us to our parent.
    let mut payload = data;
    let mut mask = 1usize;
    while mask < n {
        env.poll();
        if vrank & mask != 0 {
            let parent = vrank - mask;
            payload = env.recv_from(to_abs(parent), mask.trailing_zeros());
            break;
        }
        mask <<= 1;
    }
    // After the loop, `mask` is either the bit linking us to our parent
    // (non-root: we broke out) or the first power of two >= n (root: the
    // loop ran to completion). In both cases our children sit on the bits
    // strictly below `mask`.
    mask >>= 1;

    // Forward phase: send down the subtree.
    while mask > 0 {
        if vrank & mask == 0 {
            let child = vrank + mask;
            if child < n {
                env.send_to(to_abs(child), mask.trailing_zeros(), payload.clone());
            }
        }
        mask >>= 1;
    }
    payload
}

/// Scatter-allgather broadcast for large payloads (van de Geijn): the root
/// scatters `ceil(len/n)` chunks, then a ring allgather reassembles the
/// full payload on every rank. Moves `~2·len` per rank instead of the
/// binomial tree's `len·log2(n)` on the root's links.
///
/// An 8-byte length header travels down a binomial tree first so non-roots
/// can size their chunks (the header itself is part of the collective's
/// protocol, so a corrupted root length surfaces as truncation/protocol
/// errors exactly like a corrupted count).
pub fn bcast_large(env: &CollEnv<'_>, root: usize, data: Vec<u8>) -> Vec<u8> {
    let n = env.n();
    if n <= 1 {
        return data;
    }
    // Header: payload length, binomial tree, rounds offset 0x20.
    let hdr_env = stage(env, 0x20);
    let hdr = if env.me() == root {
        (data.len() as u64).to_le_bytes().to_vec()
    } else {
        Vec::new()
    };
    let hdr = bcast(&hdr_env, root, hdr);
    if hdr.len() != 8 {
        super::fatal(crate::error::MpiError::Protocol);
    }
    let len = u64::from_le_bytes(hdr.try_into().expect("8-byte header")) as usize;
    if len > data.len().max(crate::ctx::SIM_ALLOC_LIMIT_BYTES) {
        // A corrupted header would otherwise drive an absurd allocation.
        crate::ctx::RankCtx::segfault("bcast header exceeds simulated memory");
    }
    let chunk = len.div_ceil(n).max(1);

    // Scatter phase (linear from root), rounds offset 0x40.
    let sc_env = stage(env, 0x40);
    let padded = if env.me() == root {
        let mut d = data;
        d.resize(chunk * n, 0);
        Some(d)
    } else {
        None
    };
    let mine = super::gather_scatter::scatter(&sc_env, root, padded, chunk);

    // Allgather phase (ring), rounds offset 0x60.
    let ag_env = stage(env, 0x60);
    let mut full = super::allgather::allgather(&ag_env, mine);
    full.truncate(len);
    full
}

fn stage<'a>(env: &CollEnv<'a>, off: u32) -> CollEnv<'a> {
    CollEnv {
        fabric: env.fabric,
        ctl: env.ctl,
        comm: env.comm,
        seq: env.seq,
        round_off: env.round_off + off,
        dtype: env.dtype,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coll::testutil::run_ranks;

    #[test]
    fn bcast_from_zero_all_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 16] {
            let outs = run_ranks(n, move |env, me| {
                let data = if me == 0 { vec![7u8, 8, 9] } else { Vec::new() };
                bcast(env, 0, data)
            });
            for o in outs {
                assert_eq!(o, vec![7, 8, 9], "n={}", n);
            }
        }
    }

    #[test]
    fn bcast_from_nonzero_roots() {
        for n in [3usize, 5, 8] {
            for root in 0..n {
                let outs = run_ranks(n, move |env, me| {
                    let data = if me == root {
                        vec![root as u8; 5]
                    } else {
                        Vec::new()
                    };
                    bcast(env, root, data)
                });
                for o in outs {
                    assert_eq!(o, vec![root as u8; 5], "n={} root={}", n, root);
                }
            }
        }
    }

    #[test]
    fn bcast_large_payload() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let p2 = payload.clone();
        let outs = run_ranks(8, move |env, me| {
            let data = if me == 3 { p2.clone() } else { Vec::new() };
            bcast(env, 3, data)
        });
        for o in outs {
            assert_eq!(o, payload);
        }
    }

    #[test]
    fn bcast_large_matches_binomial() {
        for n in [2usize, 3, 4, 8] {
            for root in [0, n - 1] {
                let payload: Vec<u8> = (0..33_000u32).map(|i| (i % 251) as u8).collect();
                let p2 = payload.clone();
                let outs = run_ranks(n, move |env, me| {
                    let data = if me == root { p2.clone() } else { Vec::new() };
                    bcast_large(env, root, data)
                });
                for o in outs {
                    assert_eq!(o.len(), payload.len(), "n={} root={}", n, root);
                    assert_eq!(o, payload);
                }
            }
        }
    }

    #[test]
    fn bcast_large_uneven_length() {
        // Length not divisible by n exercises the padding/truncation path.
        let payload: Vec<u8> = (0..1001u32).map(|i| (i % 7) as u8).collect();
        let p2 = payload.clone();
        let outs = run_ranks(4, move |env, me| {
            let data = if me == 2 { p2.clone() } else { Vec::new() };
            bcast_large(env, 2, data)
        });
        for o in outs {
            assert_eq!(o, payload);
        }
    }

    #[test]
    fn bcast_empty_payload() {
        let outs = run_ranks(4, |env, me| {
            let data = if me == 0 { Vec::new() } else { vec![1] };
            bcast(env, 0, data)
        });
        for o in outs {
            assert!(o.is_empty());
        }
    }
}
