#!/usr/bin/env bash
# Offline verification: tier-1 build + tests, clippy at -D warnings, and a
# thread-count determinism smoke run of the signoff_flow example.
#
#   scripts/verify.sh
#
# Everything runs with CARGO_NET_OFFLINE=true — the workspace has no
# registry dependencies, so a failure here means a hermeticity regression.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests: cargo test --workspace -q"
# The tier-1 run above covers the root facade package; this one runs
# every member crate's unit and integration suites (core, sdc, sta,
# service, eco deltas, ...).
cargo test --workspace -q

echo "==> benchmark smoke tests: cargo test --release --manifest-path perfbench/Cargo.toml"
# perfbench is a standalone package (its own [workspace]) with path deps
# on the crates, so the workspace runs above never build it. Its tests run
# every workload once on tiny inputs: a core API change that breaks the
# benchmark build, or its output checks, fails here.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> clippy -D warnings (all touched crates)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> smoke: signoff_flow at 1 and 4 threads must be bit-identical"
# Wall-clock lines (elapsed seconds and the runtime-reduction percentage
# derived from them) legitimately vary run to run; everything else —
# merged mode names, SDC text, slacks, analysis counts — must match.
filter() { grep -vE '[0-9] s(,|$| )|Runtime reduction'; }
one="$(cargo run --release --example signoff_flow 1 2>/dev/null | filter)"
four="$(cargo run --release --example signoff_flow 4 2>/dev/null | filter)"
if [ "$one" != "$four" ]; then
    echo "FAIL: signoff_flow output differs between 1 and 4 threads" >&2
    diff <(printf '%s\n' "$one") <(printf '%s\n' "$four") >&2 || true
    exit 1
fi
echo "    identical output across thread counts"

echo "==> smoke: persistent merge service (serve / submit / cache hit / shutdown)"
# The tier-1 build above covers the root facade package only; the CLI
# binary lives in its own crate.
cargo build --release -p modemerge-cli
MM=target/release/modemerge
SMOKE_DIR="$(mktemp -d)"
SERVE_LOG="$SMOKE_DIR/serve.log"
cleanup() {
    if [ -n "${SERVE_PID:-}" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill "$SERVE_PID" 2>/dev/null || true
    fi
    rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT

# Fixtures: a small generated suite (netlist + per-mode SDCs on disk).
"$MM" generate --cells 200 --seed 7 --out "$SMOKE_DIR/suite" >/dev/null

# Background daemon on an ephemeral port; parse the bound address from
# the startup line (stdout is flushed eagerly for exactly this reason).
# MODEMERGE_ECO_CHECK=1 makes every warm ECO re-merge cross-check its
# result against a cold merge and fail the job on any byte difference.
MODEMERGE_ECO_CHECK=1 "$MM" serve --addr 127.0.0.1:0 --threads 2 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^modemerge-service listening on \([0-9.:]*\) .*/\1/p' "$SERVE_LOG")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAIL: service did not report its listening address" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi

mode_args=()
while read -r word name file; do
    [ "$word" = mode ] && mode_args+=(--mode "$name=$SMOKE_DIR/suite/$file")
done <"$SMOKE_DIR/suite/MANIFEST"

# Cold submit must compute; the identical re-submit must be a cache hit;
# both must return the same result bytes.
cold="$("$MM" submit --addr "$ADDR" --netlist "$SMOKE_DIR/suite/design.nl" "${mode_args[@]}" --json)"
warm="$("$MM" submit --addr "$ADDR" --netlist "$SMOKE_DIR/suite/design.nl" "${mode_args[@]}" --json)"
echo "$cold" | grep -q '"cached":false' || { echo "FAIL: cold submit was not computed: $cold" >&2; exit 1; }
echo "$warm" | grep -q '"cached":true' || { echo "FAIL: re-submit missed the cache: $warm" >&2; exit 1; }
cold_result="${cold#*'"result":'}"
warm_result="${warm#*'"result":'}"
if [ "$cold_result" != "$warm_result" ]; then
    echo "FAIL: cached result differs from computed result" >&2
    exit 1
fi
# ECO warm path: nudge one constraint value in the first mode and
# resubmit. The edited suite must miss the result cache but land on
# the engine left warm by the cold submit (eco_hits advances), and the
# MODEMERGE_ECO_CHECK=1 cross-check above must have actually run —
# byte-identity of warm vs. cold is asserted inside the daemon, so a
# divergence fails the submission (and with it this script).
first_mode_name="$(awk '$1 == "mode" { print $2; exit }' "$SMOKE_DIR/suite/MANIFEST")"
first_mode_file="$(awk '$1 == "mode" { print $3; exit }' "$SMOKE_DIR/suite/MANIFEST")"
ECO_SDC="$SMOKE_DIR/eco_edit.sdc"
sed '0,/^set_clock_latency /s/^set_clock_latency [0-9.]*/set_clock_latency 7.7777/' \
    "$SMOKE_DIR/suite/$first_mode_file" >"$ECO_SDC"
if cmp -s "$SMOKE_DIR/suite/$first_mode_file" "$ECO_SDC"; then
    echo "FAIL: eco edit did not change the first mode's SDC" >&2
    exit 1
fi
eco_mode_args=()
while read -r word name file; do
    if [ "$word" = mode ]; then
        if [ "$name" = "$first_mode_name" ]; then
            eco_mode_args+=(--mode "$name=$ECO_SDC")
        else
            eco_mode_args+=(--mode "$name=$SMOKE_DIR/suite/$file")
        fi
    fi
done <"$SMOKE_DIR/suite/MANIFEST"
eco_resp="$("$MM" submit --addr "$ADDR" --netlist "$SMOKE_DIR/suite/design.nl" \
    "${eco_mode_args[@]}" --json)"
echo "$eco_resp" | grep -q '"cached":false' \
    || { echo "FAIL: edited suite hit the result cache: $eco_resp" >&2; exit 1; }

STATS="$("$MM" submit --addr "$ADDR" --stats --json)"
echo "$STATS" | grep -q '"hits":' \
    || { echo "FAIL: stats lacks cache counters" >&2; exit 1; }
eco_hits="$(echo "$STATS" | grep -o '"eco_hits":[0-9]*' | cut -d: -f2)"
eco_checks="$(echo "$STATS" | grep -o '"checks_run":[0-9]*' | cut -d: -f2)"
if [ "${eco_hits:-0}" -lt 1 ]; then
    echo "FAIL: eco_hits is ${eco_hits:-absent} after an edited resubmit: $STATS" >&2
    exit 1
fi
if [ "${eco_checks:-0}" -lt 1 ]; then
    echo "FAIL: MODEMERGE_ECO_CHECK=1 ran no byte-identity checks: $STATS" >&2
    exit 1
fi
# Capture before grepping: `grep -q` exits on first match and a closed
# pipe would kill the pretty-printer mid-output (EPIPE + pipefail).
ECO_PRETTY="$("$MM" submit --addr "$ADDR" --stats)"
echo "$ECO_PRETTY" | grep -q '^eco:' \
    || { echo "FAIL: submit --stats does not pretty-print eco counters" >&2; exit 1; }

# Graceful shutdown: the daemon drains and the serve process exits 0.
"$MM" submit --addr "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
grep -q "drained and stopped" "$SERVE_LOG" \
    || { echo "FAIL: serve did not report a clean drain" >&2; cat "$SERVE_LOG" >&2; exit 1; }
SERVE_PID=""
echo "    serve/submit/cache-hit/eco-warm/shutdown round trip OK"

echo "==> smoke: multi-clique merge at 1, 2 and 8 threads must be byte-identical"
# merge_all merges its cliques concurrently. This 2000-cell / 8-mode
# suite covers two 4-mode cliques, and its first five modes one clique
# plus a singleton; for both, the merged SDC files and the --json
# summary (minus its wall-clock `timings`, the last key) must not depend
# on --threads.
"$MM" workload --cells 2000 --modes 8 --seed 11 --out "$SMOKE_DIR/cliques" >/dev/null
clique_args=()
while read -r word name file; do
    [ "$word" = mode ] && clique_args+=(--mode "$name=$SMOKE_DIR/cliques/$file")
done <"$SMOKE_DIR/cliques/MANIFEST"
for cover in two_cliques clique_singleton; do
    if [ "$cover" = two_cliques ]; then
        args=("${clique_args[@]}")
        shape='"groups":\[\[[0-9,]*\],\[[0-9,]*,[0-9,]*\]\]'
    else
        args=("${clique_args[@]:0:10}")
        shape='"groups":\[\[[0-9,]*\],\[[0-9]\]\]'
    fi
    for t in 1 2 8; do
        "$MM" merge --netlist "$SMOKE_DIR/cliques/design.nl" "${args[@]}" --json --lint off \
            --threads "$t" --out "$SMOKE_DIR/${cover}_t$t" \
            | sed -E 's/,"timings":\{.*\}\}$/}/' >"$SMOKE_DIR/${cover}_t$t.json"
        if grep -q '"timings"' "$SMOKE_DIR/${cover}_t$t.json"; then
            echo "FAIL: could not strip timings from the $cover --threads $t JSON" >&2
            exit 1
        fi
    done
    grep -q "$shape" "$SMOKE_DIR/${cover}_t1.json" \
        || { echo "FAIL: the $cover smoke suite merged into another cover" >&2; exit 1; }
    for t in 2 8; do
        diff -r "$SMOKE_DIR/${cover}_t1" "$SMOKE_DIR/${cover}_t$t" >&2 \
            || { echo "FAIL: $cover merged SDC differs between 1 and $t threads" >&2; exit 1; }
        cmp "$SMOKE_DIR/${cover}_t1.json" "$SMOKE_DIR/${cover}_t$t.json" >&2 \
            || { echo "FAIL: $cover merge --json differs between 1 and $t threads" >&2; exit 1; }
    done
done
echo "    merged SDC and JSON identical at 1, 2 and 8 threads (two cliques; clique + singleton)"

echo "==> smoke: suite registration + pipelined saturation (2 suites, 16 mixed jobs)"
# Fleet path end to end: register two suites once, pipeline 16 mixed
# merge/lint jobs referencing them by content hash over ONE connection,
# and require (a) every job answered ok, (b) the suite registry served
# hits, (c) the hash-referenced merge writes byte-identical artifacts
# to a direct in-process `merge` of the same inputs.
"$MM" generate --cells 200 --seed 8 --out "$SMOKE_DIR/suite2" >/dev/null
mode2_args=()
while read -r word name file; do
    [ "$word" = mode ] && mode2_args+=(--mode "$name=$SMOKE_DIR/suite2/$file")
done <"$SMOKE_DIR/suite2/MANIFEST"

SAT_LOG="$SMOKE_DIR/serve_sat.log"
"$MM" serve --addr 127.0.0.1:0 --threads 2 >"$SAT_LOG" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^modemerge-service listening on \([0-9.:]*\) .*/\1/p' "$SAT_LOG")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: saturation daemon did not report its address" >&2; cat "$SAT_LOG" >&2; exit 1; }

reg_hash() { sed -n 's/^registered suite \([0-9a-f]\{16\}\) .*/\1/p'; }
HASH1="$("$MM" submit --addr "$ADDR" --netlist "$SMOKE_DIR/suite/design.nl" "${mode_args[@]}" --register | reg_hash)"
HASH2="$("$MM" submit --addr "$ADDR" --netlist "$SMOKE_DIR/suite2/design.nl" "${mode2_args[@]}" --register | reg_hash)"
[ -n "$HASH1" ] && [ -n "$HASH2" ] || { echo "FAIL: register did not return suite hashes" >&2; exit 1; }
[ "$HASH1" != "$HASH2" ] || { echo "FAIL: distinct suites got the same hash" >&2; exit 1; }
# Content addressing: re-registering identical bytes yields the same hash.
HASH1_AGAIN="$("$MM" submit --addr "$ADDR" --netlist "$SMOKE_DIR/suite/design.nl" "${mode_args[@]}" --register | reg_hash)"
[ "$HASH1" = "$HASH1_AGAIN" ] || { echo "FAIL: re-registration changed the hash: $HASH1 vs $HASH1_AGAIN" >&2; exit 1; }

PIPE_IN="$SMOKE_DIR/pipe.jsonl"
: >"$PIPE_IN"
i=0
for _round in 1 2 3 4; do
    for kind in merge lint; do
        for hash in "$HASH1" "$HASH2"; do
            printf '{"type":"%s","suite":"%s","id":%d}\n' "$kind" "$hash" "$i" >>"$PIPE_IN"
            i=$((i + 1))
        done
    done
done
pipe_out="$("$MM" submit --addr "$ADDR" --pipe <"$PIPE_IN")"
reply_count="$(printf '%s\n' "$pipe_out" | grep -c '"ok":')"
[ "$reply_count" -eq 16 ] || { echo "FAIL: expected 16 pipelined replies, got $reply_count" >&2; exit 1; }
if printf '%s\n' "$pipe_out" | grep -q '"ok":false'; then
    echo "FAIL: a pipelined job failed:" >&2
    printf '%s\n' "$pipe_out" | grep '"ok":false' >&2
    exit 1
fi

SAT_STATS="$("$MM" submit --addr "$ADDR" --stats --json)"
suite_hits="$(echo "$SAT_STATS" | grep -o '"suites":{[^}]*' | grep -o '"hits":[0-9]*' | cut -d: -f2)"
if [ "${suite_hits:-0}" -lt 1 ]; then
    echo "FAIL: suite registry served ${suite_hits:-no} hits after 16 hash-referenced jobs: $SAT_STATS" >&2
    exit 1
fi
# Capture before grepping: `grep -q` exits on first match and a closed
# pipe would kill the pretty-printer mid-output (EPIPE).
SAT_PRETTY="$("$MM" submit --addr "$ADDR" --stats)"
echo "$SAT_PRETTY" | grep -q '^suites:' \
    || { echo "FAIL: submit --stats does not pretty-print suite-registry counters" >&2; exit 1; }
echo "$SAT_PRETTY" | grep -q '^queue: high water' \
    || { echo "FAIL: submit --stats does not pretty-print queue counters" >&2; exit 1; }

# Byte-identity of the fleet path: hash-referenced merge artifacts must
# equal a direct in-process merge of the same inputs, file for file.
"$MM" submit --addr "$ADDR" --suite "$HASH1" --out "$SMOKE_DIR/svc_merged" >/dev/null
"$MM" merge --netlist "$SMOKE_DIR/suite/design.nl" "${mode_args[@]}" --out "$SMOKE_DIR/direct_merged" >/dev/null
diff -r "$SMOKE_DIR/svc_merged" "$SMOKE_DIR/direct_merged" \
    || { echo "FAIL: hash-referenced merge artifacts differ from a direct merge" >&2; exit 1; }

"$MM" submit --addr "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "    register/pipeline/suite-hits/byte-identity round trip OK (16 jobs, 2 suites)"

echo "==> smoke: lint gate (clean suite exits 0, seeded defect exits 1)"
# The generated suite must lint clean even under --deny warnings …
"$MM" lint --netlist "$SMOKE_DIR/suite/design.nl" "${mode_args[@]}" --deny warnings \
    >/dev/null \
    || { echo "FAIL: clean generated suite did not lint clean" >&2; exit 1; }
# … and a seeded defect (an exception from a nonexistent pin) must be
# refused with a nonzero exit, by lint and by the merge gate alike.
BAD_SDC="$SMOKE_DIR/bad.sdc"
first_sdc="$(awk '$1 == "mode" { print $3; exit }' "$SMOKE_DIR/suite/MANIFEST")"
cp "$SMOKE_DIR/suite/$first_sdc" "$BAD_SDC"
echo 'set_false_path -from [get_pins verify_nothere/Q]' >>"$BAD_SDC"
if "$MM" lint --netlist "$SMOKE_DIR/suite/design.nl" "${mode_args[@]}" \
    --mode "bad=$BAD_SDC" --deny warnings >/dev/null 2>&1; then
    echo "FAIL: seeded defect passed the lint gate" >&2
    exit 1
fi
if "$MM" merge --netlist "$SMOKE_DIR/suite/design.nl" "${mode_args[@]}" \
    --mode "bad=$BAD_SDC" --lint deny --out "$SMOKE_DIR/denied" >/dev/null 2>&1; then
    echo "FAIL: merge --lint deny did not refuse the defective suite" >&2
    exit 1
fi
echo "    lint gate OK (clean passes, seeded defect refused)"

echo "==> smoke: static analyzer rules (lint --fast, AN-* in text and SARIF)"
# Seeded dead logic and a shadowed exception on the checked-in paper
# circuit: sel1=sel2=0 makes xorS/Z a case constant, so the -through
# exception anchored there can never arm. Both findings must come out
# of the STA-free fast path, in the text report and in SARIF.
AN_SDC="$SMOKE_DIR/an_smoke.sdc"
cat >"$AN_SDC" <<'SDC'
create_clock -name c -period 10 [get_ports clk1]
set_input_delay 1 -clock c [get_ports in1]
set_output_delay 1 -clock c [get_ports out1]
set_case_analysis 0 [get_ports sel1]
set_case_analysis 0 [get_ports sel2]
set_false_path -through [get_pins xorS/Z]
SDC
an_text="$("$MM" lint --fast --netlist tests/fixtures/paper.nl --mode "AN=$AN_SDC")"
for code in AN-DEAD-LOGIC AN-EXC-UNARMED; do
    printf '%s\n' "$an_text" | grep -q "$code" \
        || { echo "FAIL: fast lint text lacks $code" >&2; printf '%s\n' "$an_text" >&2; exit 1; }
done
an_sarif="$("$MM" lint --fast --sarif --netlist tests/fixtures/paper.nl --mode "AN=$AN_SDC")"
for code in AN-DEAD-LOGIC AN-EXC-UNARMED; do
    printf '%s\n' "$an_sarif" | grep -q "\"ruleId\":\"$code\"" \
        || { echo "FAIL: fast lint SARIF lacks $code" >&2; exit 1; }
done
echo "    analyzer smoke OK (dead logic + unarmed exception, text and SARIF)"

echo "==> smoke: lsp answers initialize/didOpen/definition/hover over stdio"
# The language server on the generated suite: open the first mode with
# two seeded defects (an unknown command -> SDC-CMD-UNKNOWN, an
# exception from a nonexistent pin -> ML-REF-UNDEF) and require the
# published diagnostics to carry both code families, go-to-definition
# to locate the first clock's create_clock, and hover on that line to
# answer with an MM-* provenance chain from the merged suite.
json_escape() { awk '{gsub(/\\/,"\\\\"); gsub(/"/,"\\\""); gsub(/\t/,"\\t"); printf "%s\\n", $0}' "$1"; }
LSP_DOC="$SMOKE_DIR/lsp_doc.sdc"
cp "$SMOKE_DIR/suite/$first_sdc" "$LSP_DOC"
printf 'set_wizardry 1\nset_false_path -from [get_pins verify_nothere/Q]\n' >>"$LSP_DOC"
LSP_URI="file://$SMOKE_DIR/suite/$first_sdc"
LSP_IN="$SMOKE_DIR/lsp.jsonl"
{
    printf '{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}\n'
    printf '{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{"textDocument":{"uri":"%s","text":"%s"}}}\n' \
        "$LSP_URI" "$(json_escape "$LSP_DOC")"
    printf '{"jsonrpc":"2.0","id":2,"method":"textDocument/definition","params":{"textDocument":{"uri":"%s"},"position":{"line":0,"character":20}}}\n' \
        "$LSP_URI"
    printf '{"jsonrpc":"2.0","id":3,"method":"textDocument/hover","params":{"textDocument":{"uri":"%s"},"position":{"line":0,"character":0}}}\n' \
        "$LSP_URI"
    printf '{"jsonrpc":"2.0","id":4,"method":"shutdown"}\n'
    printf '{"jsonrpc":"2.0","method":"exit"}\n'
} >"$LSP_IN"
lsp_out="$("$MM" lsp --netlist "$SMOKE_DIR/suite/design.nl" "${mode_args[@]}" <"$LSP_IN")"
lsp_fail() { echo "FAIL: $1" >&2; printf '%s\n' "$lsp_out" >&2; exit 1; }
echo "$lsp_out" | grep -q '"method":"textDocument/publishDiagnostics"' \
    || lsp_fail "lsp published no diagnostics"
echo "$lsp_out" | grep -q 'SDC-CMD-UNKNOWN' \
    || lsp_fail "lsp diagnostics lack the seeded SDC-CMD-UNKNOWN"
echo "$lsp_out" | grep -q 'ML-REF-UNDEF' \
    || lsp_fail "lsp diagnostics lack the seeded ML-REF-UNDEF"
echo "$lsp_out" | grep '"id":2' | grep -q '"range"' \
    || lsp_fail "lsp definition gave no location"
echo "$lsp_out" | grep '"id":3' | grep -q 'MM-' \
    || lsp_fail "lsp hover gave no MM-* provenance"
echo "$lsp_out" | grep '"id":4' | grep -q '"result":null' \
    || lsp_fail "lsp shutdown did not acknowledge"
echo "    lsp initialize/didOpen/definition/hover/shutdown round trip OK"

echo "==> smoke: malformed SDC traffic (structured refusal, daemon stays usable)"
# A suite with an unparseable mode must be refused atomically by
# `register` — structured diagnostics on the wire, nothing cached — while
# inline merges of the same bytes succeed lossily with the findings as
# data, and the daemon keeps serving afterwards.
MAL_LOG="$SMOKE_DIR/serve_mal.log"
"$MM" serve --addr 127.0.0.1:0 --threads 2 >"$MAL_LOG" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^modemerge-service listening on \([0-9.:]*\) .*/\1/p' "$MAL_LOG")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: malformed-traffic daemon did not report its address" >&2; cat "$MAL_LOG" >&2; exit 1; }

GARBAGE_SDC="$SMOKE_DIR/garbage.sdc"
cp "$SMOKE_DIR/suite/$first_sdc" "$GARBAGE_SDC"
printf 'set_wizardry 1\ncreate_clock -period\n' >>"$GARBAGE_SDC"

# Raw wire shape: the register refusal carries a `diagnostics` array
# with stable codes, and the SAME pipelined connection still answers
# the status request queued behind it.
MAL_IN="$SMOKE_DIR/malformed.jsonl"
{
    printf '{"type":"register","netlist":"%s","modes":[{"name":"garbage","sdc":"%s"}],"id":0}\n' \
        "$(json_escape "$SMOKE_DIR/suite/design.nl")" "$(json_escape "$GARBAGE_SDC")"
    printf '{"type":"status","id":1}\n'
} >"$MAL_IN"
mal_status=0
mal_out="$("$MM" submit --addr "$ADDR" --pipe <"$MAL_IN" 2>/dev/null)" || mal_status=$?
mal_fail() { echo "FAIL: $1" >&2; printf '%s\n' "$mal_out" >&2; exit 1; }
[ "$mal_status" -ne 0 ] || mal_fail "pipelined register of a garbage SDC was not refused"
echo "$mal_out" | grep '"id":0' | grep -q '"ok":false' \
    || mal_fail "garbage register reply is not an error"
echo "$mal_out" | grep '"id":0' | grep -q '"diagnostics":\[' \
    || mal_fail "garbage register reply lacks structured diagnostics"
echo "$mal_out" | grep '"id":0' | grep -q 'SDC-CMD-UNKNOWN' \
    || mal_fail "register diagnostics lack SDC-CMD-UNKNOWN"
echo "$mal_out" | grep '"id":0' | grep -q 'SDC-ARG-MISSING' \
    || mal_fail "register diagnostics lack SDC-ARG-MISSING"
echo "$mal_out" | grep '"id":1' | grep -q '"ok":true' \
    || mal_fail "connection did not survive the refused register"

# CLI surface: `submit --register` exits nonzero and names the mode.
if reg_err="$("$MM" submit --addr "$ADDR" --netlist "$SMOKE_DIR/suite/design.nl" \
    "${mode_args[@]}" --mode "garbage=$GARBAGE_SDC" --register 2>&1)"; then
    echo "FAIL: submit --register accepted a suite with an unparseable mode" >&2
    exit 1
fi
echo "$reg_err" | grep -q 'garbage' \
    || { echo "FAIL: the refusal does not name the defective mode: $reg_err" >&2; exit 1; }

# Atomicity: two refused registrations must leave the registry empty.
MAL_STATS="$("$MM" submit --addr "$ADDR" --stats --json)"
echo "$MAL_STATS" | grep -o '"suites":{[^}]*' | grep -q '"entries":0' \
    || { echo "FAIL: registry retained a refused suite: $MAL_STATS" >&2; exit 1; }

# Lossy inline path: the same garbage merges ok with the parse findings
# riding the result; --strict-parse restores the refusal.
inline="$("$MM" submit --addr "$ADDR" --netlist "$SMOKE_DIR/suite/design.nl" \
    "${mode_args[@]}" --mode "garbage=$GARBAGE_SDC" --json)"
echo "$inline" | grep -q '"ok":true' \
    || { echo "FAIL: inline merge of a garbage SDC was refused: $inline" >&2; exit 1; }
echo "$inline" | grep -q 'SDC-CMD-UNKNOWN' \
    || { echo "FAIL: lossy inline merge dropped the parse diagnostics: $inline" >&2; exit 1; }
if "$MM" submit --addr "$ADDR" --netlist "$SMOKE_DIR/suite/design.nl" \
    "${mode_args[@]}" --mode "garbage=$GARBAGE_SDC" --strict-parse >/dev/null 2>&1; then
    echo "FAIL: --strict-parse did not refuse the garbage SDC over the service" >&2
    exit 1
fi

# The daemon is still usable: a clean registration goes through.
HASH_OK="$("$MM" submit --addr "$ADDR" --netlist "$SMOKE_DIR/suite/design.nl" "${mode_args[@]}" --register | reg_hash)"
[ -n "$HASH_OK" ] || { echo "FAIL: daemon unusable after malformed traffic" >&2; exit 1; }

"$MM" submit --addr "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "    malformed traffic refused structurally; daemon and connection stayed usable"

echo "==> smoke: three_pass bench produces a well-formed report"
BENCH_OUT="$SMOKE_DIR/BENCH_three_pass.json"
# Default sample count (median of 5): the same run feeds the regression
# guard below, and a 1-sample median would be too noisy to compare.
MODEMERGE_BENCH_OUT="$BENCH_OUT" \
    cargo bench -q -p modemerge-bench --bench three_pass >"$SMOKE_DIR/bench.log" 2>&1 \
    || { echo "FAIL: three_pass bench run failed" >&2; cat "$SMOKE_DIR/bench.log" >&2; exit 1; }
[ -s "$BENCH_OUT" ] || { echo "FAIL: $BENCH_OUT missing or empty" >&2; exit 1; }
grep -q '"bench":"three_pass"' "$BENCH_OUT" \
    || { echo "FAIL: bench report lacks its identity field" >&2; cat "$BENCH_OUT" >&2; exit 1; }
# The stress suite must exercise both deep passes and the propagation
# memo — zero counters would mean the hot loop silently stopped running.
for field in pass2_endpoints pass3_pairs fixes; do
    if grep -Eq "\"$field\":0([,}])" "$BENCH_OUT"; then
        echo "FAIL: bench report has $field = 0" >&2
        cat "$BENCH_OUT" >&2
        exit 1
    fi
    grep -q "\"$field\":" "$BENCH_OUT" \
        || { echo "FAIL: bench report lacks $field" >&2; cat "$BENCH_OUT" >&2; exit 1; }
done
grep -Eq 'props=[1-9][0-9]*' "$SMOKE_DIR/bench.log" \
    || { echo "FAIL: bench ran zero startpoint propagations" >&2; cat "$SMOKE_DIR/bench.log" >&2; exit 1; }
echo "    three_pass report OK ($(grep -c 'wall_ms' "$SMOKE_DIR/bench.log") configs)"

echo "==> bench guard: three_pass wall time within 5% of the checked-in baseline"
# Provenance threading (FixNote construction inside compare_and_fix) must
# stay effectively free. Compare the best (minimum) per-config median of
# the fresh run against the checked-in BENCH_three_pass.json; the min is
# the most noise-resistant statistic, and only a slowdown fails (a faster
# machine or build is fine — regenerate the baseline to tighten it).
min_wall() { grep -o '"wall_ms":[0-9.]*' "$1" | cut -d: -f2 | sort -g | head -1; }
base_ms="$(min_wall BENCH_three_pass.json)"
[ -n "$base_ms" ] || { echo "FAIL: no wall_ms in BENCH_three_pass.json" >&2; exit 1; }
# Wall time is noisy even as a min-of-medians; a transient scheduler
# hiccup must not fail the build, a real regression must. Re-measure up
# to twice before declaring a slowdown.
guard_ok=""
for attempt in 1 2 3; do
    new_ms="$(min_wall "$BENCH_OUT")"
    [ -n "$new_ms" ] || { echo "FAIL: no wall_ms in bench report" >&2; exit 1; }
    if awk -v base="$base_ms" -v cur="$new_ms" 'BEGIN { exit !(cur <= base * 1.05) }'; then
        guard_ok=yes
        break
    fi
    echo "    attempt $attempt: ${new_ms}ms > ${base_ms}ms +5%; re-measuring"
    MODEMERGE_BENCH_OUT="$BENCH_OUT" \
        cargo bench -q -p modemerge-bench --bench three_pass >"$SMOKE_DIR/bench.log" 2>&1 \
        || { echo "FAIL: three_pass bench re-run failed" >&2; exit 1; }
done
if [ -z "$guard_ok" ]; then
    echo "FAIL: three_pass min wall ${new_ms}ms exceeds baseline ${base_ms}ms by more than 5%" >&2
    exit 1
fi
echo "    min wall ${new_ms}ms vs baseline ${base_ms}ms (within 5%)"

echo "==> smoke: scale bench 5k-cell/8-mode point with wall guard"
# One small grid point of the scale sweep: the full merge flow on an
# SoC-shaped 5k-cell design with 8 modes, run in a child process so the
# reported peak RSS is per-point. Guarded against the matching row of
# the checked-in BENCH_scale.json. Unlike the three_pass guard (a
# min-of-medians over 7 samples, stable to ~5%), each scale point is a
# single-shot wall of the whole pipeline, which jitters ~10% on this
# container — so this guard is a gross-regression tripwire at 25%.
SCALE_OUT="$SMOKE_DIR/BENCH_scale.json"
run_scale_point() {
    MODEMERGE_SCALE_GRID="5000x8" MODEMERGE_BENCH_OUT="$SCALE_OUT" \
        cargo bench -q -p modemerge-bench --bench scale >"$SMOKE_DIR/scale.log" 2>&1
}
run_scale_point \
    || { echo "FAIL: scale bench run failed" >&2; cat "$SMOKE_DIR/scale.log" >&2; exit 1; }
grep -q '"bench":"scale"' "$SCALE_OUT" \
    || { echo "FAIL: scale report lacks its identity field" >&2; cat "$SCALE_OUT" >&2; exit 1; }
for field in wall_ms peak_rss_kb merged_modes; do
    grep -q "\"$field\":" "$SCALE_OUT" \
        || { echo "FAIL: scale report lacks $field" >&2; cat "$SCALE_OUT" >&2; exit 1; }
done
# The point's wall_ms, from the row whose target_cells is 5000 (the
# fresh run has only that row; the checked-in baseline has the grid).
scale_wall() { grep -o '"target_cells":5000,[^}]*' "$1" | grep -o '"wall_ms":[0-9.]*' | head -1 | cut -d: -f2; }
scale_base="$(scale_wall BENCH_scale.json)"
[ -n "$scale_base" ] || { echo "FAIL: no 5000-cell row in BENCH_scale.json" >&2; exit 1; }
scale_ok=""
for attempt in 1 2 3; do
    scale_new="$(scale_wall "$SCALE_OUT")"
    [ -n "$scale_new" ] || { echo "FAIL: no 5000-cell row in fresh scale report" >&2; exit 1; }
    if awk -v base="$scale_base" -v cur="$scale_new" 'BEGIN { exit !(cur <= base * 1.25) }'; then
        scale_ok=yes
        break
    fi
    echo "    attempt $attempt: ${scale_new}ms > ${scale_base}ms +25%; re-measuring"
    run_scale_point \
        || { echo "FAIL: scale bench re-run failed" >&2; cat "$SMOKE_DIR/scale.log" >&2; exit 1; }
done
if [ -z "$scale_ok" ]; then
    echo "FAIL: scale 5k-point wall ${scale_new}ms exceeds baseline ${scale_base}ms by more than 25%" >&2
    exit 1
fi
echo "    5k-point wall ${scale_new}ms vs baseline ${scale_base}ms (within 25%)"

echo "==> smoke: eco bench stress point with warm-speedup tripwire"
# The incremental re-merge path must actually pay off: re-run the
# 648-cell stress point of the eco A/B grid fresh (the full grid's
# 8000-cell suite is too slow for a smoke run) and require warm >= 5x
# cold on the two value-edit rows — in the fresh run and the
# checked-in BENCH_eco.json alike. The headline claim is >= 10x; 5x is
# the tripwire so container noise cannot flake the build while a
# broken warm path still fails loudly. The bench itself asserts the
# warm result is byte-identical to a cold merge before reporting.
ECO_OUT="$SMOKE_DIR/BENCH_eco.json"
MODEMERGE_ECO_SUITES=stress_648x8 MODEMERGE_BENCH_OUT="$ECO_OUT" \
    cargo bench -q -p modemerge-bench --bench eco >"$SMOKE_DIR/eco.log" 2>&1 \
    || { echo "FAIL: eco bench run failed" >&2; cat "$SMOKE_DIR/eco.log" >&2; exit 1; }
grep -q '"bench":"eco"' "$ECO_OUT" \
    || { echo "FAIL: eco report lacks its identity field" >&2; cat "$ECO_OUT" >&2; exit 1; }
# All speedup values for one edit kind (one per suite row; `speedup`
# precedes the nested counters object, so [^}]* cannot overrun it).
eco_speedups() { grep -o "\"edit\":\"$2\"[^}]*" "$1" | grep -o '"speedup":[0-9.]*' | cut -d: -f2; }
for report in "$ECO_OUT" BENCH_eco.json; do
    for edit in clock_attr io_delay; do
        found=""
        for s in $(eco_speedups "$report" "$edit"); do
            found=yes
            awk -v s="$s" 'BEGIN { exit !(s >= 5) }' || {
                echo "FAIL: $report: $edit warm speedup ${s}x is below the 5x tripwire" >&2
                exit 1
            }
        done
        [ -n "$found" ] || { echo "FAIL: $report has no $edit row" >&2; exit 1; }
    done
done
echo "    warm >= 5x cold on value edits (fresh stress run and checked-in report)"

echo "==> smoke: service saturation bench with warm-ratio tripwire"
# The suite registry must actually pay off: hash-referenced warm
# throughput >= 2x the full-payload warm path (the ISSUE-8 acceptance
# floor), in a fresh reduced run (8 workers only, 1 round) and in the
# checked-in BENCH_service.json alike. The bench itself asserts every
# warm reply byte-identical to a direct MergeSession run before
# reporting, so passing this gate also re-proves the invariant.
SAT_OUT="$SMOKE_DIR/BENCH_service.json"
run_saturation() {
    MODEMERGE_SERVICE_GRID=8 MODEMERGE_BENCH_SAMPLES=1 MODEMERGE_BENCH_OUT="$SAT_OUT" \
        cargo bench -q -p modemerge-bench --bench service_saturation >"$SMOKE_DIR/sat.log" 2>&1
}
run_saturation \
    || { echo "FAIL: service_saturation bench run failed" >&2; cat "$SMOKE_DIR/sat.log" >&2; exit 1; }
grep -q '"bench":"service_saturation"' "$SAT_OUT" \
    || { echo "FAIL: saturation report lacks its identity field" >&2; cat "$SAT_OUT" >&2; exit 1; }
sat_ratio() { grep -o '"warm_jobs_per_s_ratio":[0-9.]*' "$1" | cut -d: -f2; }
base_ratio="$(sat_ratio BENCH_service.json)"
[ -n "$base_ratio" ] || { echo "FAIL: no warm ratio in BENCH_service.json" >&2; exit 1; }
awk -v r="$base_ratio" 'BEGIN { exit !(r >= 2) }' \
    || { echo "FAIL: checked-in BENCH_service.json warm ratio ${base_ratio}x is below 2x" >&2; exit 1; }
sat_ok=""
for attempt in 1 2 3; do
    fresh_ratio="$(sat_ratio "$SAT_OUT")"
    [ -n "$fresh_ratio" ] || { echo "FAIL: no warm ratio in fresh saturation report" >&2; exit 1; }
    if awk -v r="$fresh_ratio" 'BEGIN { exit !(r >= 2) }'; then
        sat_ok=yes
        break
    fi
    echo "    attempt $attempt: warm ratio ${fresh_ratio}x below 2x; re-measuring"
    run_saturation \
        || { echo "FAIL: service_saturation bench re-run failed" >&2; cat "$SMOKE_DIR/sat.log" >&2; exit 1; }
done
if [ -z "$sat_ok" ]; then
    echo "FAIL: registered warm throughput ${fresh_ratio}x payload warm is below the 2x tripwire" >&2
    exit 1
fi
echo "    registered warm >= 2x payload warm (fresh ${fresh_ratio}x, checked-in ${base_ratio}x)"

echo "==> smoke: static_analysis bench with >=10x fast-lint tripwire"
# The checked-in BENCH_analysis.json 100k-cell/32-mode row must hold
# the ISSUE-10 acceptance floor: fast lint >= 10x STA-backed lint.
# Fresh, only the 5000x8 point is re-measured (the 100k slow side
# costs minutes): the speedup gap narrows at small scale, so the fresh
# floor is 3x — low enough that container noise cannot flake the
# build, high enough that a broken fast path (which would also fail
# the bench's internal byte-identity assert) trips loudly.
an_speedup() { # $1=report $2=target_cells -> that row's speedup
    grep -o "\"target_cells\":$2,[^}]*" "$1" | grep -o '"speedup":[0-9.]*' | cut -d: -f2
}
base_speedup="$(an_speedup BENCH_analysis.json 100000)"
[ -n "$base_speedup" ] || { echo "FAIL: no 100k row in BENCH_analysis.json" >&2; exit 1; }
awk -v s="$base_speedup" 'BEGIN { exit !(s >= 10) }' \
    || { echo "FAIL: checked-in 100k fast-lint speedup ${base_speedup}x is below 10x" >&2; exit 1; }
AN_OUT="$SMOKE_DIR/BENCH_analysis.json"
run_analysis() {
    MODEMERGE_ANALYSIS_GRID=5000x8 MODEMERGE_BENCH_OUT="$AN_OUT" \
        cargo bench -q -p modemerge-bench --bench static_analysis \
        >"$SMOKE_DIR/analysis.log" 2>&1
}
run_analysis \
    || { echo "FAIL: static_analysis bench run failed" >&2; cat "$SMOKE_DIR/analysis.log" >&2; exit 1; }
grep -q '"bench":"static_analysis"' "$AN_OUT" \
    || { echo "FAIL: analysis report lacks its identity field" >&2; cat "$AN_OUT" >&2; exit 1; }
an_ok=""
for attempt in 1 2 3; do
    fresh_speedup="$(an_speedup "$AN_OUT" 5000)"
    [ -n "$fresh_speedup" ] || { echo "FAIL: no 5000-cell row in fresh analysis report" >&2; exit 1; }
    if awk -v s="$fresh_speedup" 'BEGIN { exit !(s >= 3) }'; then
        an_ok=yes
        break
    fi
    echo "    attempt $attempt: fresh 5000-cell speedup ${fresh_speedup}x below 3x; re-measuring"
    run_analysis \
        || { echo "FAIL: static_analysis bench re-run failed" >&2; exit 1; }
done
if [ -z "$an_ok" ]; then
    echo "FAIL: fresh fast-lint speedup ${fresh_speedup}x is below the 3x tripwire" >&2
    exit 1
fi
echo "    fast lint >= 10x at 100k (checked-in ${base_speedup}x), fresh 5000x8 ${fresh_speedup}x"

echo "==> verify.sh: all checks passed"
