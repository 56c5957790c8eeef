#!/usr/bin/env bash
# Exit-code contract of the swfomc CLI, asserted against the real binary
# (registered as the tier-1 ctest `cli_exit_codes`):
#   0   success (including --help)
#   1   an --check comparison failed
#   2   unreadable or malformed input file
#   3   a resource budget was exhausted under --on-budget=error
#   64  usage error (EX_USAGE): bad command, bad option, missing operand
# stdout carries only JSON documents, so every usage error must leave it
# empty.
#
# Usage: scripts/cli_exit_codes.sh path/to/swfomc
set -u

bin="${1:?usage: cli_exit_codes.sh path/to/swfomc}"
failures=0

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

expect() {
  local want="$1"
  shift
  "$@" >"$workdir/stdout" 2>/dev/null
  local got=$?
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: exit $got (want $want): $*"
    failures=1
  elif [[ "$want" == 64 && -s "$workdir/stdout" ]]; then
    echo "FAIL: exit 64 but wrote to stdout: $*"
    failures=1
  else
    echo "ok: exit $got: $*"
  fi
}

# 0: help, from any position.
expect 0 "$bin" --help
expect 0 "$bin" run --help

# 64: the command line itself is wrong.
expect 64 "$bin"
expect 64 "$bin" frobnicate whatever.model
expect 64 "$bin" run
expect 64 "$bin" run --bogus-flag x.model
expect 64 "$bin" run --threads abc x.model
expect 64 "$bin" run --method warp-drive x.model
expect 64 "$bin" run --threads
expect 64 "$bin" run --out circuit.nnf x.model        # --out is compile-only
expect 64 "$bin" compile --out a.nnf --out-dir d x.model
expect 64 "$bin" eval --out-dir d x.nnf
expect 64 "$bin" eval --method grounded x.nnf         # the circuit kind is
expect 64 "$bin" compile --threads 4 x.model          # fixed; thread counts
expect 64 "$bin" eval --threads 2 x.nnf               # would be ignored
expect 64 "$bin" run --threads 4 x.model              # counting is
expect 64 "$bin" cnf --threads 4 x.cnf                # sequential too
expect 64 "$bin" run --domain 3 x.model               # --domain is eval-only
expect 64 "$bin" compile --domain 3 x.model
expect 64 "$bin" eval --domain abc x.nnf
expect 64 "$bin" serve --domain 3
mkdir -p "$workdir/a" "$workdir/b"
printf 'sentence forall x R(x)\ndomain 1\n' > "$workdir/a/same.model"
printf 'sentence forall x R(x)\ndomain 1\n' > "$workdir/b/same.model"
expect 64 "$bin" compile --out-dir "$workdir/nnf-dup" \
  "$workdir/a/same.model" "$workdir/b/same.model"     # basenames collide
expect 64 "$bin" run --budget-ms x.model              # flag eats the operand
expect 64 "$bin" run --budget-ms -5 x.model
expect 64 "$bin" run --budget-ms 18446744073709551616 x.model  # 2^64
expect 64 "$bin" run --max-memory 64q x.model         # bad size suffix
expect 64 "$bin" run --on-budget=panic --budget-ms 5 x.model
expect 64 "$bin" run --on-budget=error x.model        # needs a budget flag
expect 64 "$bin" eval --budget-ms 5 x.nnf             # eval runs no search
expect 64 "$bin" route --max-decisions 1 x.model
# serve is a daemon: it reads requests from its connection, not from file
# operands, and one-shot reporting flags have nothing to act on.
expect 64 "$bin" serve x.model
expect 64 "$bin" serve --check
expect 64 "$bin" serve --method grounded
expect 64 "$bin" serve --on-budget=error --budget-ms 5
expect 64 "$bin" serve --out report.json
expect 64 "$bin" serve --listen 99999                 # not a TCP port
expect 64 "$bin" serve --max-circuits abc
expect 64 "$bin" run --listen 4242 x.model            # serve-only flags
expect 64 "$bin" run --max-circuits 4 x.model
expect 64 "$bin" compile --max-circuit-bytes 1M x.model

# Observability sinks follow the counting/evaluation work: route and
# print have none, serve exposes metrics through its protocol command
# instead of a file, and both flags demand a filename.
expect 64 "$bin" route --metrics-out m.txt x.model
expect 64 "$bin" route --trace-out t.jsonl x.model
expect 64 "$bin" print --metrics-out m.txt x.model
expect 64 "$bin" print --trace-out t.jsonl x.model
expect 64 "$bin" serve --metrics-out m.txt
expect 64 "$bin" run --metrics-out                    # flag needs a value
expect 64 "$bin" run --trace-out
expect 64 "$bin" run --metrics-out= x.model
expect 64 "$bin" run --trace-out= x.model

# 2: input files that cannot be read or parsed.
expect 2 "$bin" run "$workdir/does-not-exist.model"
expect 2 "$bin" cnf "$workdir/does-not-exist.cnf"
expect 2 "$bin" eval "$workdir/does-not-exist.nnf"
printf 'garbage directive\n' > "$workdir/bad.model"
expect 2 "$bin" run "$workdir/bad.model"
printf 'nnf 1 0 1\nL 2\n' > "$workdir/bad.nnf"        # literal out of range
expect 2 "$bin" eval "$workdir/bad.nnf"
printf 'nnf 2 2 1\nL 1\nA 2 0 0\n' > "$workdir/shared.nnf" # AND(x1, x1) is
expect 2 "$bin" eval "$workdir/shared.nnf"              # not decomposable
expect 2 "$bin" print "$workdir/shared.nnf"
printf 'predicate S 64\nsentence true\ndomain 2\n' > "$workdir/arity64.model"
expect 2 "$bin" run "$workdir/arity64.model"           # once answered 1
printf 'sentence R(18446744073709551617)\ndomain 2\n' > "$workdir/bigconst.model"
expect 2 "$bin" print "$workdir/bigconst.model"        # 2^64 + 1, once R(1)

# 1: the count disagrees with the pinned expectation.
printf 'sentence forall x R(x)\ndomain 1\nexpect 5\n' > "$workdir/wrong.model"
expect 1 "$bin" run --check "$workdir/wrong.model"
expect 1 "$bin" compile --check "$workdir/wrong.model"
printf 'nnf 1 0 1\ne 5\nL 1\n' > "$workdir/wrong.nnf"  # evaluates to 1
expect 1 "$bin" eval --check "$workdir/wrong.nnf"
# A sweep whose FINAL point matches but whose mid-range point does not
# must still fail (the check covers every point, not just the last one).
printf 'sentence forall x exists y S(x,y)\ndomain 1..3\nexpect 2 = 999\nexpect 343\n' \
  > "$workdir/midsweep.model"
expect 1 "$bin" run --check "$workdir/midsweep.model"
printf 'sentence forall x exists y S(x,y)\ndomain 1..3\nexpect 2 = 9\nexpect 343\n' \
  > "$workdir/goodsweep.model"
expect 0 "$bin" run --check "$workdir/goodsweep.model"

# 3: a budget fired and the caller asked --on-budget=error. The triangle
# sentence is FO3 (grounded route) and needs real decisions, so a zero
# decision cap always stops it; the default bounds policy keeps exit 0.
printf 'model triangle\ndomain 3\nmethod grounded\nsentence exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))\n' \
  > "$workdir/triangle.model"
expect 3 "$bin" run --max-decisions 0 --on-budget=error "$workdir/triangle.model"
expect 3 "$bin" run --budget-ms 0 --on-budget error "$workdir/triangle.model"
expect 3 "$bin" compile --max-decisions 0 --on-budget=error "$workdir/triangle.model"
expect 0 "$bin" run --max-decisions 0 "$workdir/triangle.model"
expect 0 "$bin" run --max-decisions 0 --on-budget=bounds "$workdir/triangle.model"

# Lifted compilation: a liftable FO² model needs no `domain` directive
# and compiles to a domain-parametric circuit; a non-liftable one
# without a domain is a malformed workload (exit 2), as is `run` on any
# domain-less model. --domain only makes sense against lifted circuits.
printf 'sentence forall x exists y S(x,y)\n' > "$workdir/liftable.model"
expect 0 "$bin" compile "$workdir/liftable.model"
expect 0 "$bin" compile --out-dir "$workdir/lnnf" "$workdir/liftable.model"
expect 0 "$bin" eval --domain 4 "$workdir/lnnf/liftable.nnf"
expect 2 "$bin" eval "$workdir/lnnf/liftable.nnf"     # no e line, no --domain
expect 2 "$bin" run "$workdir/liftable.model"         # run needs a domain
printf 'sentence forall x T(x,x,x)\n' > "$workdir/unliftable.model"
expect 2 "$bin" compile "$workdir/unliftable.model"   # grounded needs a domain
printf 'sentence forall x R(x)\ndomain 2\n' > "$workdir/g.model"
printf 'p cnf 1 1\n1 0\n' > "$workdir/g.cnf"
expect 0 "$bin" compile --method grounded --out-dir "$workdir/gnnf" "$workdir/g.model"
expect 64 "$bin" eval --domain 2 "$workdir/gnnf/g.nnf" # grounded circuits fix n
printf 'L 1\n' > "$workdir/headerless.nnf"
expect 2 "$bin" eval --domain 2 "$workdir/headerless.nnf" # a parse error, not
expect 2 "$bin" eval --domain 2 "$workdir/does-not-exist.nnf" # a usage one
printf 'sentence forall x R(x)\ndomain 0\n' > "$workdir/d0.model"
expect 0 "$bin" compile "$workdir/d0.model"           # n = 0 compiles grounded

# Flags that would do nothing for a command are rejected, not ignored:
# route and cnf have no method to force and no expectation to check, and
# print emits text, not JSON. Every value flag rejects an empty value,
# and a lifted circuit needs a domain of at least one element.
expect 64 "$bin" route --method grounded "$workdir/g.model"
expect 64 "$bin" route --check "$workdir/g.model"
expect 64 "$bin" cnf --method grounded "$workdir/g.cnf"
expect 64 "$bin" cnf --check "$workdir/g.cnf"
expect 64 "$bin" print --method grounded "$workdir/g.model"
expect 64 "$bin" print --check "$workdir/g.model"
expect 64 "$bin" print --compact "$workdir/g.model"
expect 64 "$bin" compile --out= "$workdir/g.model"
expect 64 "$bin" compile --out-dir= "$workdir/g.model"
expect 64 "$bin" eval --domain 0 "$workdir/lnnf/liftable.nnf"

# An unknown command is rejected before any sink opens: a file named by
# --metrics-out or --trace-out keeps its contents.
printf 'sentinel\n' > "$workdir/sentinel.ref"
cp "$workdir/sentinel.ref" "$workdir/sentinel.txt"
expect 64 "$bin" frobnicate --metrics-out "$workdir/sentinel.txt" "$workdir/g.model"
expect 0 cmp -s "$workdir/sentinel.ref" "$workdir/sentinel.txt"
expect 64 "$bin" frobnicate --trace-out "$workdir/sentinel.txt" "$workdir/g.model"
expect 0 cmp -s "$workdir/sentinel.ref" "$workdir/sentinel.txt"
# So are the usage errors that read the operands: --out-dir basenames
# that collide, and --domain on a grounded circuit.
expect 64 "$bin" compile --out-dir "$workdir/d" --trace-out "$workdir/sentinel.txt" \
  "$workdir/a/same.model" "$workdir/b/same.model"
expect 0 cmp -s "$workdir/sentinel.ref" "$workdir/sentinel.txt"
expect 64 "$bin" eval --domain 2 --trace-out "$workdir/sentinel.txt" "$workdir/gnnf/g.nnf"
expect 0 cmp -s "$workdir/sentinel.ref" "$workdir/sentinel.txt"

# 0: the same checks, satisfied. Also exercises compile -> eval chaining.
printf 'sentence forall x R(x)\ndomain 1\nexpect 1\n' > "$workdir/right.model"
expect 0 "$bin" run --check "$workdir/right.model"
expect 0 "$bin" compile --check --out-dir "$workdir/nnf" "$workdir/right.model"
expect 0 "$bin" eval --check "$workdir/nnf/right.nnf"
# A circuit need not be smooth, nor mention every variable: eval reports
# the weighted model count over all declared variables.
printf 'nnf 5 4 2\nw 1 2 3\nw 2 5 7\ne 39\nL 1\nL -1\nL 2\nA 2 1 2\nO 1 2 0 3\n' \
  > "$workdir/nonsmooth.nnf"                            # OR(x1, ¬x1 ∧ x2)
expect 0 "$bin" eval --check "$workdir/nonsmooth.nnf"
printf 'nnf 5 4 2\ne 3\nL 1\nL -1\nL 2\nA 2 1 2\nO 1 2 0 3\n' \
  > "$workdir/nonsmooth-unit.nnf"
expect 0 "$bin" eval --check "$workdir/nonsmooth-unit.nnf"
printf 'nnf 1 0 2\ne 2\nL 1\n' > "$workdir/uncovered.nnf" # x2 unmentioned
expect 0 "$bin" eval --check "$workdir/uncovered.nnf"

# 0: observability sinks on a counting command write real files; an
# unwritable sink is an I/O failure (exit 2), not a usage error.
expect 0 "$bin" run --metrics-out "$workdir/m.txt" \
  --trace-out "$workdir/t.jsonl" --check "$workdir/right.model"
expect 0 grep -q '^swfomc_' "$workdir/m.txt"
expect 0 grep -q '"ts_us"' "$workdir/t.jsonl"
expect 2 "$bin" run --metrics-out "$workdir/no-such-dir/m.txt" \
  "$workdir/right.model"

# 0: the daemon's side of the contract — `quit` and EOF are clean exits.
printf '{"cmd":"quit"}\n' > "$workdir/quit.jsonl"
expect 0 sh -c "exec \"$bin\" serve < \"$workdir/quit.jsonl\""
expect 0 sh -c "exec \"$bin\" serve < /dev/null"

exit "$failures"
