//! Injection keys stay on their lines.
//!
//! An injection point is keyed by its call site, `file:line` of the
//! collective call, so a kernel edit that moves a line renames every point
//! below it and changes the ID of every campaign over that kernel. This
//! test lists, for each of the seven kernels at 4 ranks, the sorted
//! `file:line|MPI_*` sites of its golden profile and holds them to
//! `tests/fixtures/injection_keys.txt`.

use minimd::{md_app, MdConfig};
use npb::{kernel_by_name, Class, ALL_KERNELS};
use simmpi::runtime::JobSpec;
use std::collections::BTreeSet;

/// `KERNEL file:line|MPI_*` for every collective site of the kernel's
/// golden profile at 4 ranks, sorted.
fn call_sites(kernel: &str) -> Vec<String> {
    let app = match kernel {
        "LAMMPS" => md_app(MdConfig::default()),
        name => kernel_by_name(name, Class::Mini).0,
    };
    let spec = JobSpec {
        nranks: 4,
        ..Default::default()
    };
    let (profile, _) = mpiprof::profile_app(&spec, app);
    let sites: BTreeSet<String> = profile
        .records
        .iter()
        .flatten()
        .map(|r| format!("{}:{}|{}", r.site.file, r.site.line, r.kind.name()))
        .collect();
    sites.into_iter().map(|s| format!("{kernel} {s}")).collect()
}

#[test]
fn every_kernel_keeps_its_injection_keys() {
    let expected: Vec<&str> = include_str!("fixtures/injection_keys.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect();
    let got: Vec<String> = ALL_KERNELS
        .iter()
        .chain(&["LAMMPS"])
        .flat_map(|k| call_sites(k))
        .collect();
    assert_eq!(
        got, expected,
        "a kernel's collective call sites moved: its injection keys and campaign IDs change"
    );
}
