.PHONY: all build test check bench clean golden validate fuzz

all: build

build:
	dune build

test: build
	dune runtest

# Tier-1 gate plus the bench smoke: nine sections on small inputs
# (P1 slack engine, P2 k-worst path prefix parity across k, P3
# telemetry, P4 session, S2 scale, P5 snapshot, S3 serve, O1 monitor,
# V1 fuzz), which exits 1 after listing every failed gate. The validate
# step replays the frozen golden QoR corpus and a small fixed-seed
# differential fuzz batch.
check:
	dune build
	dune runtest
	dune exec bench/main.exe -- --smoke
	dune exec bin/hummingbird.exe -- validate --corpus test/golden --fuzz 8

# Re-freeze the golden QoR corpus after an intentional engine change.
# Review the diff before committing: every changed hex float is a
# bit-level QoR change you are signing off on.
golden:
	dune exec bin/hummingbird.exe -- validate --corpus test/golden --update

# Golden gate only (what CI runs on every PR).
validate:
	dune exec bin/hummingbird.exe -- validate --corpus test/golden

# Longer differential fuzz session than the check/CI budget.
fuzz:
	dune exec bin/hummingbird.exe -- validate --skip-golden --fuzz 200 \
	  --budget-seconds 120

bench:
	dune exec bench/main.exe

clean:
	dune clean
