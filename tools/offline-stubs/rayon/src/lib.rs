//! Placeholder for `rayon`. Nothing in the workspace depends on it any
//! more; the package exists only because `benchmark/run.sh` still names it
//! in the `[patch.crates-io]` section of its offline manifest, and cargo
//! refuses a patch whose path is missing (an unused one is just a warning).
