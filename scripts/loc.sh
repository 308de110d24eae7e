#!/usr/bin/env bash
# Non-test lines of Rust per crate: for every `.rs` file under
# `crates/*/src` and `src`, the lines before its first `#[cfg(test)]`
# (a file without one counts whole). Each count is printed twice: raw,
# and after rustfmt on a temporary copy (so a formatting change moves
# neither column by itself). Without rustfmt the second column reads `-`.
#
# Usage: scripts/loc.sh [DIR...]   (default: crates/*/src src)
set -euo pipefail
cd "$(dirname "$0")/.."

dirs=("$@")
[ ${#dirs[@]} -gt 0 ] || dirs=(crates/*/src src)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fmt=$(command -v rustfmt || true)

# Lines of a file before its first `#[cfg(test)]`.
body() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }

total_raw=0 total_fmt=0
printf '%8s %8s  %s\n' raw rustfmt dir
for dir in "${dirs[@]}"; do
    raw=0 fmtd=0
    while IFS= read -r f; do
        raw=$((raw + $(body "$f")))
        if [ -n "$fmt" ]; then
            # stdin: rustfmt formats the file alone, not the modules it declares
            "$fmt" --edition 2021 <"$f" >"$tmp/x.rs" 2>/dev/null || cp "$f" "$tmp/x.rs"
            fmtd=$((fmtd + $(body "$tmp/x.rs")))
        fi
    done < <(find "$dir" -name '*.rs' | sort)
    total_raw=$((total_raw + raw)) total_fmt=$((total_fmt + fmtd))
    [ -n "$fmt" ] || fmtd=-
    printf '%8d %8s  %s\n' "$raw" "$fmtd" "$dir"
done
[ -n "$fmt" ] || total_fmt=-
printf '%8d %8s  %s\n' "$total_raw" "$total_fmt" total
