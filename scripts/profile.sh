#!/usr/bin/env bash
# Where does an xt-hostbench workload spend its host time?
#
#   scripts/profile.sh WORKLOAD [SECONDS] [--lines FN] [--incl PATTERN]
#
# Builds scripts/profile/sigprof.c (a 1 ms SIGPROF sampler, preloaded),
# builds benchmark/ with line tables into a target directory of its own,
# runs one untraced xt-hostbench run of WORKLOAD (seed 910, default 20 s)
# under the sampler with run.sh's allocator settings, and prints self %
# and inclusive % per function. With --lines FN, also the samples whose
# innermost frame is in a function matching FN, per inlined function and
# source line. With --incl PATTERN, also the inclusive % of every
# function matching PATTERN, inlined or not: a sample counts for a
# function when the function is anywhere on the stack, inlined frames
# included. FN and PATTERN are awk extended regular expressions matched
# against the demangled name: alternatives are 'a|b' (grep's 'a\|b'
# matches nothing here). A requested table that no function matches
# ends the script with "no function matched PATTERN" and exit status 1.
#
# A function is the non-inlined function an address belongs to; what was
# inlined into it counts as its self time and shows up under --lines and
# --incl.
# Output goes to stdout, the work files to target/profile (ignored by
# git). Shell, cc, addr2line and awk only.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=""
seconds=20
lines=""
incl=""
while [ $# -gt 0 ]; do
    case "$1" in
        --lines) lines="$2"; shift 2 ;;
        --incl) incl="$2"; shift 2 ;;
        -*) echo "profile.sh: unknown argument $1" >&2; exit 2 ;;
        *) if [ -z "$workload" ]; then workload="$1"; else seconds="$1"; fi; shift ;;
    esac
done
if [ -z "$workload" ]; then
    echo "usage: scripts/profile.sh WORKLOAD [SECONDS] [--lines FN] [--incl PATTERN]" >&2
    exit 2
fi
if ! command -v cc >/dev/null 2>&1 || ! command -v addr2line >/dev/null 2>&1; then
    echo "profile.sh: skipped (needs cc and addr2line)"
    exit 0
fi

dir="$PWD/target/profile"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd -P)" # as /proc/self/maps will spell the binary's path
cc -O2 -shared -fPIC -o "$dir/sigprof.so" scripts/profile/sigprof.c
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$dir/target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$dir/target/release/xt-hostbench"

# as benchmark/run.sh runs it
unset XT_HARNESS_SEED XT_HARNESS_CASES
export GLIBC_TUNABLES="glibc.malloc.trim_threshold=1073741824:glibc.malloc.mmap_threshold=33554432"
LD_PRELOAD="$dir/sigprof.so" SIGPROF_OUT="$dir/samples.txt" \
    "$bin" --workload "$workload" --seed 910 --seconds "$seconds" --trace 0 --out "$dir/out" \
    2>&1 >/dev/null | tail -n 1

# The binary is position-independent: an address minus the start of its
# lowest mapping is the address addr2line knows. Frames in other objects
# (libc, the vdso) become 0x0 and come out as "??".
awk -v bin="$bin" '
    # mawk has no strtonum; a user-space address fits a double exactly
    function hex(s,    k, v) { v = 0; for (k = 3; k <= length(s); k++) v = v * 16 + index("0123456789abcdef", substr(s, k, 1)) - 1; return v }
    $1 == "M" { if ($NF == bin) { split($2, r, "-"); if (!lo) lo = hex("0x" r[1]); hi = hex("0x" r[2]) } next }
    { row[++n] = $0 }
    END {
        for (s = 1; s <= n; s++) {
            m = split(row[s], f, " "); out = ""
            for (k = 1; k <= m; k++) {
                a = hex(f[k])
                # a return address points after its call: step back into it
                if (k > 1) a -= 1
                out = out (k > 1 ? " " : "") ((a >= lo && a < hi) ? sprintf("0x%x", a - lo) : "0x0")
            }
            print out
        }
    }' "$dir/samples.txt" > "$dir/stacks.txt"
samples=$(wc -l < "$dir/stacks.txt")
if [ "$samples" -eq 0 ]; then
    echo "profile.sh: no samples taken" >&2
    exit 1
fi

# address -> "outermost function<TAB>innermost function<TAB>innermost
# file:line<TAB>every function of the inline chain, each followed by \037"
tr ' ' '\n' < "$dir/stacks.txt" | sort -u > "$dir/addrs.txt"
addr2line -a -f -C -i -e "$bin" $(cat "$dir/addrs.txt") | awk '
    function flush() { if (addr != "") print addr "\t" fn "\t" inner "\t" where "\t" chain }
    /^0x[0-9a-f]+$/ { flush(); addr = $0; sub(/^0x0*/, "0x", addr); if (addr == "0x") addr = "0x0"; inner = ""; chain = ""; next }
    { fn = $0; chain = chain fn "\037"; getline loc; sub(/ \(discriminator [0-9]+\)/, "", loc); n = split(loc, p, "/")
      if (inner == "") { inner = fn; where = (n > 3 ? p[n-3] "/" p[n-2] "/" p[n-1] "/" p[n] : loc) } }
    END { flush() }' > "$dir/symbols.tsv"

echo "== $workload: $samples samples (1 ms of CPU time apart, or the kernel tick if that is longer) =="
echo "-- self % (innermost frame) and inclusive % (anywhere on the stack), top 25 by self --"
awk -F '\t' -v total="$samples" '
    NR == FNR { outer[$1] = $2; next }
    { m = split($0, f, " "); split("", seen)
      self[outer[f[1]]]++
      for (k = 1; k <= m; k++) { fn = outer[f[k]]; if (!(fn in seen)) { seen[fn] = 1; incl[fn]++ } } }
    END { for (fn in incl) printf "%6.2f %6.2f  %s\n", 100 * self[fn] / total, 100 * incl[fn] / total, fn }
' "$dir/symbols.tsv" FS=' ' "$dir/stacks.txt" | sort -k1,1nr -k2,2nr | awk 'NR <= 25' # not head: it would end sort with SIGPIPE

if [ -n "$lines" ]; then
    awk -F '\t' -v pat="$lines" '
        NR == FNR { if ($2 ~ pat) line[$1] = $3 "\t" $4; next }
        { split($0, f, " "); if (f[1] in line) print line[f[1]] }
    ' "$dir/symbols.tsv" FS=' ' "$dir/stacks.txt" > "$dir/lines.tsv"
    if [ ! -s "$dir/lines.tsv" ]; then
        echo "profile.sh: no function matched $lines" >&2
        exit 1
    fi
    echo "-- samples whose innermost frame is in a function matching '$lines': % of all samples per inlined function --"
    cut -f 1 "$dir/lines.tsv" | sort | uniq -c | sort -k1,1nr |
        awk -v total="$samples" '{ n = $1; $1 = ""; printf "%6.2f %s\n", 100 * n / total, $0 }'
    echo "-- and samples per source line, top 60 --"
    sort "$dir/lines.tsv" | uniq -c | sort -k1,1nr | awk 'NR <= 60'
fi

if [ -n "$incl" ]; then
    awk -F '\t' -v pat="$incl" -v total="$samples" '
        NR == FNR { n = split($5, c, "\037"); for (k = 1; k < n; k++) if (c[k] ~ pat) hit[$1] = hit[$1] c[k] "\037"; next }
        { m = split($0, f, " "); split("", seen)
          for (k = 1; k <= m; k++) if (f[k] in hit) {
              n = split(hit[f[k]], c, "\037")
              for (j = 1; j < n; j++) if (!(c[j] in seen)) { seen[c[j]] = 1; incl[c[j]]++ } } }
        END { for (fn in incl) printf "%6.2f  %s\n", 100 * incl[fn] / total, fn }
    ' "$dir/symbols.tsv" FS=' ' "$dir/stacks.txt" | sort -k1,1nr > "$dir/incl.txt"
    if [ ! -s "$dir/incl.txt" ]; then
        echo "profile.sh: no function matched $incl" >&2
        exit 1
    fi
    echo "-- inclusive % of every function matching '$incl', inlined frames included --"
    cat "$dir/incl.txt"
fi
