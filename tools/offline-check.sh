#!/usr/bin/env sh
# Run cargo against the offline dependency stubs (tools/offline-stubs).
#
#   tools/offline-check.sh check            -> cargo check --workspace --all-targets
#   tools/offline-check.sh test            -> cargo test -q (workspace)
#   tools/offline-check.sh <any cargo args> -> cargo <args> with stubs patched in
#
# The script appends a [patch.crates-io] section to the workspace
# manifest for the duration of the cargo invocation and restores the
# original manifest (and leaves the committed Cargo.lock untouched) on
# exit, including on failure or interrupt.

set -eu

repo="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
manifest="$repo/Cargo.toml"
backup="$repo/.offline-check.Cargo.toml.bak"
lock="$repo/Cargo.lock"
lock_backup="$repo/.offline-check.Cargo.lock.bak"

restore() {
    if [ -f "$backup" ]; then
        mv -f "$backup" "$manifest"
    fi
    rm -f "$lock"
    if [ -f "$lock_backup" ]; then
        mv -f "$lock_backup" "$lock"
    fi
}
trap restore EXIT INT TERM

cp "$manifest" "$backup"
if [ -f "$lock" ]; then
    mv "$lock" "$lock_backup"
fi

cat >> "$manifest" <<'EOF'

# --- appended by tools/offline-check.sh; never commit this section ---
[patch.crates-io]
rand = { path = "tools/offline-stubs/rand" }
rand_chacha = { path = "tools/offline-stubs/rand_chacha" }
parking_lot = { path = "tools/offline-stubs/parking_lot" }
proptest = { path = "tools/offline-stubs/proptest" }
criterion = { path = "tools/offline-stubs/criterion" }
EOF

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo/target-offline}"
export CARGO_NET_OFFLINE=true

cd "$repo"
case "${1:-check}" in
    check)
        shift || true
        cargo check --workspace --all-targets "$@"
        ;;
    test)
        shift || true
        cargo test -q --workspace "$@"
        ;;
    *)
        cargo "$@"
        ;;
esac
