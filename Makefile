# Convenience targets; everything is plain dune underneath.

.PHONY: all build test faults txn-sweep serve-sweep recovery-sweep \
        bench bench-obs figures examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# the fault-injection harness alone (also part of the default runtest)
faults:
	dune exec test/test_faults.exe

# the failpoint sweep and transactional-isolation suite alone
txn-sweep:
	dune exec test/test_txn.exe

# chaos-test the daemon: drive a live ms2c serve through every serve/*
# failpoint (error and timeout) and the protocol edge cases, asserting
# it stays up and sessions stay isolated (fingerprint-checked)
serve-sweep:
	dune build bin/ms2c.exe
	dune exec test/test_serve.exe

# crash-safe persistence end to end: snapshot corruption goldens, the
# kill -9 + rerun byte-identity test (the rerun replays the finished
# files from the same --cache-file), the torn-tail case, the
# persistence failpoint sweep, and warm daemon restarts
recovery-sweep:
	dune build bin/ms2c.exe
	dune exec test/test_recovery.exe

# regenerate the paper's figures, all timing tables and BENCH_OBS.json
bench:
	dune exec bench/main.exe

# telemetry overhead table: disabled-sink and recording costs, plus the
# uncached clean-path overhead of the expansion cache
# (writes BENCH_OBS.json)
bench-obs:
	dune exec bench/main.exe obs

figures:
	dune exec bench/main.exe figures

examples:
	@for e in quickstart exceptions enum_io window_proc dynamic_bind \
	          control semantic state_machine metamacros prelude_tour \
          embedded_query derive; do \
	  echo "== examples/$$e =="; dune exec examples/$$e.exe; done

clean:
	dune clean
