.PHONY: all build test bench bench-quick bench-smoke bench-gates \
	server-smoke shard-smoke wirebench check fmt lint verify bad-corpus clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick

# Fast subset: one worked example, the algebraic laws, one algorithmic
# comparison, the parallel evaluation section (B9), the result-cache
# gates (B10) and the server throughput section (B11).
bench-smoke:
	dune exec bench/main.exe -- --smoke

# Cost-model no-regression gates: run the smoke bench, pull its
# BENCH_JSON line, and fail if any b9_speedups / b10_cache cell is below
# 1.0x (parallel-chosen B9 cells are skipped on hosts with < 4 cores,
# where measured fan-out cannot win).
bench-gates:
	@dune exec bench/main.exe -- --smoke > _bench_smoke.log 2>&1; \
	status=$$?; cat _bench_smoke.log; \
	[ $$status -eq 0 ] || { echo "bench-gates: bench failed"; exit 1; }; \
	grep -o 'BENCH_JSON .*' _bench_smoke.log | cut -d' ' -f2- > _bench_smoke.json; \
	python3 scripts/bench_gates.py _bench_smoke.json

# Boot prefserve, soak it with concurrent clients, assert complete
# response accounting, zero unexpected deadline expiries, and a clean
# SIGTERM drain.
server-smoke:
	bash scripts/server_smoke.sh

# Boot 3 prefserve shards + prefroute, assert router == single-node
# parity, zero-loss accounting through the router (including with one
# backend SIGTERMed mid-soak), degraded served=2/3 responses afterwards,
# and a clean router drain.
shard-smoke:
	bash scripts/shard_smoke.sh

# Wire-level serving benchmark: prefserve and prefroute driven end to end
# on the serve_cold, session_mix and routed_rw workloads (untraced,
# traced, and a held-out seed). Exits non-zero on any wire answer,
# snapshot or delta stream that differs from the in-process oracle.
wirebench:
	python3 wirebench/run.py --all --seed 1 --seconds 5

# Formatting gate; dune's (formatting) stanza covers the dune files
# everywhere and .ml/.mli sources when an ocamlformat binary is present.
fmt:
	dune build @fmt

# Static-analysis gate: the whole tree rebuilt under the strict profile
# (every enabled warning is an error), then prefcheck over the example
# query corpora — exits 1 on any error-severity finding.
lint:
	dune build @all --profile strict
	dune exec -- prefcheck --json -w cars examples/queries/cars.psql
	dune exec -- prefcheck --json -w hotels examples/queries/hotels.psql
	dune exec -- prefcheck --json -w trips examples/queries/trips.psql
	dune exec -- prefcheck --json examples/queries/tour.pxpath
	@$(MAKE) bad-corpus

# Negative corpus: every file in examples/queries/bad declares the codes
# it must trigger (`-- expect: CODE ...`); the harness runs prefcheck
# --json per file and fails on any missing or unexpectedly-clean code.
bad-corpus:
	python3 scripts/bad_corpus.py examples/queries/bad

# The bounded soundness verifier: small-scope model checking of every
# rewrite rule, constraints proof rule, cache decomposition tier and the
# router merge against the literal Definition 15 semantics. Exits 1 and
# prints a minimal counterexample (term + relation) on any failure.
verify:
	dune exec -- prefcheck --verify

# The pre-push gate: full build, the whole test suite, the static-analysis
# gate, and the bench smoke subset (correctness checks incl. parallel
# evaluation and the result cache, ends with BENCH_JSON). The explicit
# exit keeps a gate failure fatal even under `make -i` / overridden
# sub-make flags.
check:
	dune build @all
	dune runtest
	@$(MAKE) lint || { echo "make check: FAILED (lint gate)"; exit 1; }
	@$(MAKE) verify || { echo "make check: FAILED (verify gate)"; exit 1; }
	@$(MAKE) bench-gates || { echo "make check: FAILED (bench gates)"; exit 1; }
	@echo "make check: OK"

clean:
	dune clean
	rm -f _bench_smoke.log _bench_smoke.json
