//! Injection-point enumeration.
//!
//! A fault injection point is a tuple `(call site, invocation, rank,
//! parameter)` — §II. The full space is the cross product over all sites,
//! all their invocations, all ranks, and all injectable parameters of the
//! collective; the pruning stages of §III carve it down.

use mpiprof::ApplicationProfile;
use simmpi::hook::{CallSite, CollKind, ParamId};

/// One fault injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectionPoint {
    /// Application call site.
    pub site: CallSite,
    /// Collective type at the site.
    pub kind: CollKind,
    /// Target global rank.
    pub rank: usize,
    /// Target invocation index (per rank, per site).
    pub invocation: u64,
    /// Target parameter.
    pub param: ParamId,
}

/// Which layer of the stack a campaign injects faults into.
///
/// `Param` is the paper's model: one bit flip in one input parameter at
/// the PMPI seam. `Message` is the orthogonal transport-level axis added
/// on top: the same `(site, invocation, rank, param)` addressing selects
/// the collective invocation, but the bit draw decodes into a
/// [`MsgFaultPlan`](simmpi::transport::MsgFaultPlan) applied to one of
/// that rank's in-flight messages instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultChannel {
    /// Bit flips in collective input parameters (the FastFIT default).
    #[default]
    Param,
    /// Transport-level faults on individual messages (flip, drop,
    /// duplicate, delay, truncate).
    Message,
    /// The target rank dies (simulated process crash) at the addressed
    /// collective entry; survivors drain via the fail-stop sweep.
    CrashStop,
    /// The target rank stalls for a bounded delay at the addressed
    /// collective entry, then proceeds normally.
    FailSlow,
    /// A network partition from the addressed collective on: every message
    /// crossing a rank cut is dropped on the wire.
    Partition,
}

/// All fault channels, in token order.
pub const ALL_FAULT_CHANNELS: [FaultChannel; 5] = [
    FaultChannel::Param,
    FaultChannel::Message,
    FaultChannel::CrashStop,
    FaultChannel::FailSlow,
    FaultChannel::Partition,
];

impl FaultChannel {
    /// Stable textual token for journals and CLIs.
    pub fn token(self) -> &'static str {
        match self {
            FaultChannel::Param => "param",
            FaultChannel::Message => "message",
            FaultChannel::CrashStop => "crash-stop",
            FaultChannel::FailSlow => "fail-slow",
            FaultChannel::Partition => "partition",
        }
    }

    /// Inverse of [`FaultChannel::token`].
    pub fn from_token(token: &str) -> Option<FaultChannel> {
        ALL_FAULT_CHANNELS.into_iter().find(|c| c.token() == token)
    }

    /// Dense index into per-channel telemetry arrays (token order).
    pub fn index(self) -> usize {
        match self {
            FaultChannel::Param => 0,
            FaultChannel::Message => 1,
            FaultChannel::CrashStop => 2,
            FaultChannel::FailSlow => 3,
            FaultChannel::Partition => 4,
        }
    }
}

/// Which parameters a campaign injects into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamsMode {
    /// The paper's campaign default (§V-C): the data buffer where one
    /// exists, otherwise the communicator (`MPI_Barrier` has no buffer).
    DataBuffer,
    /// Every injectable parameter of the collective (Figure 9's study).
    All,
    /// An explicit list (intersected with the collective's parameter set).
    Only(Vec<ParamId>),
}

impl ParamsMode {
    /// Stable textual token for journals and CLIs (`data`, `all`,
    /// `only:sendbuf+count`).
    pub fn token(&self) -> String {
        match self {
            ParamsMode::DataBuffer => "data".to_string(),
            ParamsMode::All => "all".to_string(),
            ParamsMode::Only(list) => {
                let names: Vec<&str> = list.iter().map(|p| p.name()).collect();
                format!("only:{}", names.join("+"))
            }
        }
    }

    /// Inverse of [`ParamsMode::token`].
    pub fn from_token(token: &str) -> Option<ParamsMode> {
        match token {
            "data" => Some(ParamsMode::DataBuffer),
            "all" => Some(ParamsMode::All),
            _ => {
                let list = token.strip_prefix("only:")?;
                let params: Option<Vec<ParamId>> =
                    list.split('+').map(ParamId::from_name).collect();
                Some(ParamsMode::Only(params?))
            }
        }
    }

    /// The parameters to inject for a collective of this kind.
    pub fn params_for(&self, kind: CollKind) -> Vec<ParamId> {
        let available = kind.params();
        match self {
            ParamsMode::DataBuffer => {
                if available.contains(&ParamId::SendBuf) {
                    vec![ParamId::SendBuf]
                } else {
                    vec![ParamId::Comm]
                }
            }
            ParamsMode::All => available.to_vec(),
            ParamsMode::Only(list) => available
                .iter()
                .copied()
                .filter(|p| list.contains(p))
                .collect(),
        }
    }
}

/// Size of the *full* (unpruned) injection space: for every site, its
/// per-rank invocation count summed over all ranks, times the parameter
/// count for the campaign mode. This is the paper's baseline (e.g. 618,496
/// points for 1024-rank LAMMPS).
pub fn full_space_count(profile: &ApplicationProfile, mode: &ParamsMode) -> u64 {
    let mut total = 0u64;
    for rank in 0..profile.nranks {
        for st in profile.site_stats(rank) {
            total += st.n_inv * mode.params_for(st.kind).len() as u64;
        }
    }
    total
}

/// Enumerate the full space for a (small) profiled run. Mostly used by
/// tests and the exhaustive-baseline ablation; campaigns use the pruned
/// enumeration in [`crate::prune`].
pub fn full_space(profile: &ApplicationProfile, mode: &ParamsMode) -> Vec<InjectionPoint> {
    let mut points = Vec::new();
    for rank in 0..profile.nranks {
        for st in profile.site_stats(rank) {
            for inv in 0..st.n_inv {
                for param in mode.params_for(st.kind) {
                    points.push(InjectionPoint {
                        site: st.site,
                        kind: st.kind,
                        rank,
                        invocation: inv,
                        param,
                    });
                }
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::record::{CallRecord, Phase};

    fn rec(line: u32, kind: CollKind, inv: u64) -> CallRecord {
        CallRecord {
            site: CallSite {
                file: "app.rs",
                line,
            },
            kind,
            invocation: inv,
            comm_code: 1,
            seq: 0,
            comm_size: 2,
            count: 1,
            root: 0,
            is_root: false,
            phase: Phase::Compute,
            errhdl: false,
            stack: vec!["main"],
            bytes: 8,
        }
    }

    #[test]
    fn fault_channel_token_roundtrip() {
        for (i, ch) in ALL_FAULT_CHANNELS.into_iter().enumerate() {
            assert_eq!(FaultChannel::from_token(ch.token()), Some(ch));
            assert_eq!(ch.index(), i, "index follows token order");
        }
        assert_eq!(FaultChannel::from_token("bogus"), None);
        assert_eq!(FaultChannel::default(), FaultChannel::Param);
        let tokens: std::collections::HashSet<_> =
            ALL_FAULT_CHANNELS.iter().map(|c| c.token()).collect();
        assert_eq!(tokens.len(), ALL_FAULT_CHANNELS.len());
    }

    #[test]
    fn params_mode_token_roundtrip() {
        for mode in [
            ParamsMode::DataBuffer,
            ParamsMode::All,
            ParamsMode::Only(vec![ParamId::SendBuf, ParamId::Count]),
        ] {
            assert_eq!(ParamsMode::from_token(&mode.token()), Some(mode.clone()));
        }
        assert_eq!(
            ParamsMode::Only(vec![ParamId::SendBuf, ParamId::Count]).token(),
            "only:sendbuf+count"
        );
        assert_eq!(ParamsMode::from_token("only:bogus"), None);
        assert_eq!(ParamsMode::from_token("bogus"), None);
    }

    #[test]
    fn params_mode_selection() {
        assert_eq!(
            ParamsMode::DataBuffer.params_for(CollKind::Allreduce),
            vec![ParamId::SendBuf]
        );
        assert_eq!(
            ParamsMode::DataBuffer.params_for(CollKind::Barrier),
            vec![ParamId::Comm]
        );
        assert_eq!(ParamsMode::All.params_for(CollKind::Allreduce).len(), 6);
        assert_eq!(
            ParamsMode::Only(vec![ParamId::Op, ParamId::Root]).params_for(CollKind::Allreduce),
            vec![ParamId::Op]
        );
    }

    #[test]
    fn full_space_counts_cross_product() {
        // 2 ranks, one allreduce site with 3 invocations, one barrier site
        // with 1 invocation.
        let per_rank = vec![
            rec(1, CollKind::Allreduce, 0),
            rec(1, CollKind::Allreduce, 1),
            rec(1, CollKind::Allreduce, 2),
            rec(9, CollKind::Barrier, 0),
        ];
        let p = ApplicationProfile::new(vec![per_rank.clone(), per_rank]);
        // DataBuffer mode: (3 inv * 1 param + 1 inv * 1 param) * 2 ranks.
        assert_eq!(full_space_count(&p, &ParamsMode::DataBuffer), 8);
        // All params: (3 * 6 + 1 * 1) * 2.
        assert_eq!(full_space_count(&p, &ParamsMode::All), 38);
        let pts = full_space(&p, &ParamsMode::All);
        assert_eq!(pts.len(), 38);
        // Enumeration and counting agree by construction.
        let distinct: std::collections::HashSet<_> = pts.iter().collect();
        assert_eq!(distinct.len(), pts.len());
    }
}
