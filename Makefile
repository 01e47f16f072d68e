GO ?= go

.PHONY: ci check vet build build-arm64 test race race-fleet examples gen-gate grid-equiv resume-gate drain-gate exhibits-check kernel-oracles fuzz-smoke bench-smoke vet-obs obs-overhead trace-overhead ingest-smoke bench-micro

## ci: the full gate — vet (gofmt, go vet, the obs metric-doc check),
## build (plus the arm64 cross-build that keeps the non-amd64 kernel
## stubs honest), race-enabled tests (the concurrent fleet/fitpool
## packages in a twice-run pass of their own), the public API's
## examples by name, the synthetic fleet's
## digests, its day stream and the two commands that read it without
## -race, the grid equivalence gate, the
## checkpoint resume and vehicle drain gates, the bench-scale exhibits
## against their committed text, the SIMD kernel oracles by
## name, the wire-ingest smoke, the observer and tracing overhead gates,
## the codec and kernel fuzz smokes, and one iteration of every Go
## benchmark. Every target tests behaviour and none writes into the
## checkout; performance is measured by `bash benchmark/run.sh`, not
## here. The targets run one after another, stopping at the first
## failure, and a table of each one's wall time closes the run: a gate
## that costs minutes to re-prove what another already proved shows up
## there.
CI_TARGETS = vet-obs build build-arm64 race race-fleet examples gen-gate grid-equiv resume-gate drain-gate exhibits-check kernel-oracles ingest-smoke obs-overhead trace-overhead fuzz-smoke bench-smoke bench-micro
ci:
	@table=""; t0=$$(date +%s); \
	for t in $(CI_TARGETS); do \
		s=$$(date +%s); \
		$(MAKE) --no-print-directory $$t || exit 1; \
		table="$$table$$(printf '%-16s %5ds' $$t $$(( $$(date +%s) - s )))\n"; \
	done; \
	printf "\nmake ci: wall time per target\n$$table%-16s %5ds\n" total $$(( $$(date +%s) - t0 ))

## named: the gates below run tests by name through
## $(call named,PKG,REGEX[,ENV][,FLAGS]) = `ENV go test -run 'REGEX'
## FLAGS PKG`, after failing when any |-separated alternative of REGEX
## matches no test in PKG, checked one alternative at a time with `go
## test -list`. `-run` alone prints "[no tests to run]" and exits 0, so
## a renamed test would otherwise drop out of the gate that names it.
define named
@for alt in $$(echo '$(2)' | tr '|' ' '); do \
	out=$$($(GO) test -list "$$alt" $(1)) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -qE '^(Test|Fuzz|Example)' || \
		{ echo "$(1): -run alternative $$alt matches no test"; exit 1; }; \
done
$(3) $(GO) test -run '$(2)' $(4) $(1)
endef

## named-rows: the gates below run table rows through
## $(call named-rows,PKG,NAME ...), each NAME a test or TEST/ROW, in one
## `go test -run '^(TEST|...)$$/^(ROW|...)$$' -v PKG` that prints only
## what is not a passing test's line, and fail when any NAME ran no test:
## -run with a vanished row still runs, and passes, the bare table. A row
## named for one table runs in every named table that has it, and a test
## named without a row must have no subtests (the row pattern filters
## them).
define named-rows
@tops=$$(for n in $(2); do echo "$${n%%/*}"; done | sort -u | xargs | tr ' ' '|'); \
rows=$$(for n in $(2); do case $$n in */*) echo "$${n#*/}";; esac; done | sort -u | xargs | tr ' ' '|'); \
re="^($$tops)\$$"; [ -z "$$rows" ] || re="$$re/^($$rows)\$$"; \
echo "$(GO) test -run '$$re' -v $(1)"; \
out=$$($(GO) test -run "$$re" -v $(1) 2>&1); s=$$?; \
echo "$$out" | grep -vE '^ *(=== |--- PASS)'; \
[ $$s -eq 0 ] || exit $$s; \
for n in $(2); do \
	{ echo "$$out" | grep -qxF "=== RUN   $$n" || echo "$$out" | grep -qF "=== RUN   $$n/"; } || \
		{ echo "$(1): $$n ran no test"; exit 1; }; \
done
endef

## check: the fast inner-loop gate — vet (incl. gofmt), build, and the
## plain test suite, with none of ci's race/equivalence/bench machinery.
check: vet build test

## vet: go vet, after failing when gofmt would change any file.
vet:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

build:
	$(GO) build ./...

## build-arm64: cross-build everything and vet internal/mat for arm64.
## Every assembly kernel needs a stub in simd_other.go; a new symbol
## without one only fails on a non-amd64 machine, which CI never is.
build-arm64:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/mat/

test:
	$(GO) test ./...

## race: the whole suite under the race detector, except the three
## packages race-fleet races twice right after it.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v -e '/internal/fleet$$' -e '/internal/fitpool$$' -e '/internal/core$$')

## race-fleet: the race pass over the packages whose goroutines share
## state by design — the sharded engine (fitDone handoff, checkpoint
## barriers beside Replay and IngestBatch, the cordon fence under the
## ingest mutex, batch free lists), the pipeline (a deferred fit on a
## worker while the shard goroutine feeds the transform stage and queues
## its samples; RunVehicle's segment fits ahead of its scoring walk)
## and the fitpool — with count=2 so the scheduler interleaves
## differently across runs. `race` leaves these to this target.
race-fleet:
	$(GO) test -race -count=2 ./internal/fleet/... ./internal/core/... ./internal/fitpool/...

## examples: the public API's Example tests in example_test.go, by name.
## An example whose // Output: comment is dropped still compiles but no
## longer runs, and plain `go test` passes without it; named-rows fails
## on a NAME that ran nothing.
examples:
	$(call named-rows,.,ExampleNewDefaultPipeline ExampleNewFleetEngine ExampleDetector ExampleStartDebugServer)

## gen-gate: the synthetic fleet's bytes, without -race — all 21
## TestGenerateGolden digests at GOMAXPROCS 1, 2 and 8, the two 400 x 100
## fleets that `race` skips included — the per-day placement against its
## stable-sort oracle, the bound on what Generate allocates, the day
## stream folded into Generate's digest on two calls within 5% of
## Generate's allocation, no simulation worker left running after Days
## stops at an error (`race` runs that one at SmallConfig), and what
## navarchos-gen writes and navarchos-detect prints and checkpoints at
## -scale small, both of which read the stream, with detect's listing
## the same at any shard count.
gen-gate:
	$(call named,./internal/fleetsim/,TestGenerateGolden|TestGenerateDeterministic|TestPlaceDayMatchesStableSort|TestGenerateAllocBound|TestDaysAllocBound|TestDaysLeavesNoWorkers)
	$(call named,./cmd/navarchos-gen/,TestMainGolden)
	$(call named,./cmd/navarchos-detect/,TestMainGolden|TestListingIndependentOfShards)

## grid-equiv: the transform-once grid must reproduce, cell for cell,
## the re-stream-per-technique reference that now lives beside the test
## (internal/eval/reference_test.go), materialise each (kind, vehicle)
## stream exactly once, and replay thresholds exactly as the reference's
## per-sample loop does; and the legacy fit kernels and scorer must land
## on the same cells as the shipped detectors. The sweep and the
## reference share no accounting code: the sweep folds eval.Horizon per
## vehicle, the reference scores with the replaced first-listed
## evaluateReference. TestHorizonMatchesEvaluate holds the fold to a
## brute-force statement of the PH rule, to any input order and to that
## oracle wherever repairs are PH apart; TestEvaluateOrderIndependent
## pins the overlapping horizons the oracle got wrong. TestPipelineConfigAgainstGrid
## holds the live pipeline a cell stands for (GridSpec.PipelineConfig)
## equal to the cell's replay on every row of the sweep: the same daily
## alarms, bit for bit, on every vehicle, since both take the std floor
## from thresholds.FloorStd and persistence from one thresholds.Gate per
## vehicle, whose m-of-k counting TestGate pins.
grid-equiv:
	$(call named,./internal/eval/,TestRunGridCachedMatchesReference|TestRunGridKernelOraclesMatchDefaults|TestRunGridTransformOnce|TestSweepReplayZeroAlloc|TestPipelineConfigAgainstGrid|TestHorizonMatchesEvaluate|TestEvaluateOrderIndependent)
	$(call named,./internal/thresholds/,TestGate|TestGateReset)

## resume-gate: checkpointing a live engine mid-stream and restoring at
## a different shard count must be bit-identical to an uninterrupted
## run, for every paper technique × transform — and so must feeding the
## same cells through Replay and through the traced batch-ingest path
## (every fourth batch untraced), observer off and on, against a serial
## replay: TestEngineMatchesSerialReplay's replay-grid and traced-grid
## rows. The checkpoint stream itself, every transform's emitted vectors
## and snapshots, and the pipeline's alarms, trace rows and journal over
## the small fleet (inline and deferred fits) are held to the SHA-256
## digests earlier commits wrote (testdata/engine_small.ckpt.sha256,
## testdata/transform.sha256, testdata/pipeline.sha256; never
## regenerated from the change under test), the correlation and mean
## transforms must match their oracles over the records a window holds,
## a record past a full window starting the next one
## (TestOverflowStartsNextWindow), core.RunVehicle, whose fits
## run on fitpool, must match the one-pass streaming reference at 1, 2
## and 8 fit workers (TestRunVehicleMatchesReference) and hand every
## fitpool token back (TestRunVehicleFitErrorReleasesWorkers), and one
## pipeline split at every phase must resume bit-identically
## (TestPipelineSnapshotResume).
resume-gate:
	$(call named,./internal/fleet/,TestEngineCheckpointResumeGate|TestCheckpointBytesGolden)
	$(call named-rows,./internal/fleet/,TestEngineMatchesSerialReplay/replay-grid TestEngineMatchesSerialReplay/traced-grid)
	$(call named,./internal/transform/,TestTransformGolden|TestOverflowStartsNextWindow)
	$(call named,./internal/core/,TestPipelineGolden|TestRunVehicleMatchesReference|TestRunVehicleFitErrorReleasesWorkers|TestPipelineSnapshotResume)

## drain-gate: live vehicle handoff must not cost a bit — extracting
## vehicles from a running engine and adopting them at a different
## shard count (directly, in both rows of each TestVehicleHandoffDrainGate
## cell — fed by Replay, and observed and fed through the traced batch
## path — and over the HTTP handoff wire path) must reproduce the
## single-engine replay's alarms Float64bits-identically, with ingest
## during the move refused via the typed 409, never dropped. Serve's
## rows run by name: the HTTP drain, adoption against the ring, and a
## handoff whose reply is lost, which must leave the vehicle live on
## one instance and the journals whole once the drain is re-issued. The
## whole-engine checkpoint is built from the same per-vehicle codec the
## handoff uses; its half of that one serialization path is
## resume-gate's to pin, not re-run here.
drain-gate:
	$(call named,./internal/fleet/,TestVehicleHandoffDrainGate|TestConcurrentMigrationIngest)
	$(call named-rows,./cmd/navarchos-serve/,TestServeScenarios/drain-handoff TestServeScenarios/adoption-overrides-ring TestServeScenarios/lost-response-peer-unreachable)

## exhibits-check: docs/exhibits_bench_seed1.txt must be what
## `navarchos-bench -scale bench -seed 1` prints from this checkout, so a
## change that moves an exhibit re-pins the file in the same commit.
## Only Table 1's wall-clock rows (the lines ending in seconds between
## its heading and Table 2's) are left out of the diff: they are timings.
## Every other line, Table 1's headings included, must match byte for byte.
EXHIBITS_UNTIMED = sed '/^Table 1 /,/^Table 2 /{/[0-9]s$$/d;}'
exhibits-check:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o $$d/navarchos-bench ./cmd/navarchos-bench && \
	$$d/navarchos-bench -scale bench -seed 1 > $$d/out && \
	$(EXHIBITS_UNTIMED) $$d/out > $$d/got && \
	$(EXHIBITS_UNTIMED) docs/exhibits_bench_seed1.txt > $$d/want && \
	diff $$d/want $$d/got || { echo "exhibits-check: docs/exhibits_bench_seed1.txt is stale; regenerate it with navarchos-bench -scale bench -seed 1"; exit 1; }

## kernel-oracles: the SIMD kernels against their scalar references, by
## name — the exp lanes against math.Exp and against a transcription of
## each of its two branches, the softmax rows, the layer-norm and
## element-wise kernels, the fast LayerNorm against the legacy one, the
## Adam step's bias-correction table against math.Pow — the shipped
## TranAD against its legacy oracle and the snapshots an earlier commit
## wrote, its run scorer against ScoreInto, the XGBoost histogram split
## search against the exact one and a dense scan, the shipped regression
## detector against the snapshots an earlier commit wrote, its channel
## fan-out against the serial fit and ScoreInto against the legacy
## scorer, and the detect stage's runs over a cached trace against the
## streaming pipeline. `race` runs them
## as well; naming them here makes a renamed or deleted oracle fail the
## gate instead of dropping out.
kernel-oracles:
	$(call named,./internal/mat/,TestExpLanesMatchMathExp|TestExpBranchesMatchTranscription|TestSoftmaxRowsBitIdentical|TestNormRowBitIdentical|TestNormKernelsBitIdentical|TestElementwiseBitIdentical|TestConcatColsBitIdentical)
	$(call named,./internal/nn/,TestLayerNormFastMatchesLegacy|TestFastKernelsBitIdenticalToLegacy|TestAdamBiasTableMatchesPow)
	$(call named,./internal/detector/tranad/,TestShippedConfigBitIdenticalToLegacy|TestShippedSnapshotsFromParentCommit|TestScorePathsBitIdentical|TestScoreRunMatchesScoreInto)
	$(call named,./internal/gbt/,TestHistMatchesExactOnDiscreteFeatures|TestHistEdgeCases)
	$(call named,./internal/detector/regress/,TestShippedSnapshotsFromParentCommit|TestParallelChannelsMatchSerial|TestScoreIntoMatchesScore)
	$(call named,./internal/core/,TestDetectOnTraceMatchesPipeline)

## bench-micro: one iteration of the kernel micro-benchmarks (the
## in-order product, SIMD axpy/Adam, the whole-layer dense forward/backward at
## every shipped layer shape, the attention softmax and the layer norm at
## the shipped shapes, histogram split search at the shapes the
## paper grid fits and exact split search, a regress fit at both shipped
## profile shapes, tranad fit, score and run scoring — runs of 1 and
## 128, in ns/score — at the shipped configuration plus one
## legacy-vs-default fit pair on a wider model), enough to catch a
## kernel benchmark that no longer compiles or crashes.
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkProduct|BenchmarkColInto|BenchmarkAddScaled|BenchmarkAdamStep|BenchmarkSquaredDistances8|BenchmarkNormRow|BenchmarkSoftmaxRows|BenchmarkLinFwd|BenchmarkLinBwd' -benchtime 1x ./internal/mat/
	$(GO) test -run '^$$' -bench 'BenchmarkLayerNorm' -benchtime 1x ./internal/nn/
	$(GO) test -run '^$$' -bench 'BenchmarkHistogramSplit|BenchmarkExactSplit' -benchtime 1x ./internal/gbt/
	$(GO) test -run '^$$' -bench 'BenchmarkRegressFit' -benchtime 1x ./internal/detector/regress/
	$(GO) test -run '^$$' -bench 'BenchmarkFitLegacy|BenchmarkFitFast|BenchmarkScore$$|BenchmarkScoreRun' -benchtime 1x ./internal/detector/tranad/

## vet-obs: go vet plus the obscheck lint — every metric family the
## stack registers must be documented in DESIGN.md §10.
vet-obs: vet
	$(GO) run ./internal/obs/obscheck

## obs-overhead: the instrumentation budget — an enabled observer must
## stay within 5% of the nil-observer hot path (timing-sensitive, so it
## is opt-in via OBS_OVERHEAD_GATE and not part of plain `go test`).
obs-overhead:
	$(call named,./internal/core/,TestObservedOverheadGate,OBS_OVERHEAD_GATE=1,-v)

## trace-overhead: the provenance budget — scoring with a batch context
## attached to every sample must stay within 5% of the untraced hot
## path (timing-sensitive, so it is opt-in via TRACE_OVERHEAD_GATE and
## not part of plain `go test`).
trace-overhead:
	$(call named,./internal/core/,TestTracedOverheadGate,TRACE_OVERHEAD_GATE=1,-v)

## fuzz-smoke: a short fuzz of the binary codecs exposed to untrusted
## bytes — the checkpoint container, the NVWIRE1 telemetry frame
## decoder, the per-vehicle state codec that handoff frames carry and
## the pipeline snapshot inside it — and of the two numeric kernels whose
## shape and content the fuzzer can steer. The codecs must reject
## arbitrary corruption with typed errors, never a panic or an
## over-read, accepted vehicle states must re-encode canonically, and a
## restored pipeline must take a stream; mat.Product must match its scalar loops
## bit for bit at any shape, stride and content and touch nothing
## outside Out, and mat.SoftmaxRows must match softmaxRow at any row
## length, count, scale and content and touch nothing outside its rows.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzCheckpointRoundTrip' -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz 'FuzzWireDecode' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzVehicleStateRoundTrip' -fuzztime 10s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz 'FuzzPipelineRestore' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzProduct' -fuzztime 10s ./internal/mat/
	$(GO) test -run '^$$' -fuzz 'FuzzSoftmaxRows' -fuzztime 10s ./internal/mat/

## ingest-smoke: the wire data-plane gates at test scale — the committed
## golden frame file must decode byte-stably, the decoder must hold its
## zero-allocation steady state, the encoder must grow its buffer by
## doubling, a reused decoder must deliver what a fresh one does,
## refuse a bad header before sizing a buffer from it and give back
## oversized buffers when its stream ends, IngestBatch
## must admit with no allocation from one item per call to a whole frame,
## block a multi-item call on a full shard queue
## (TestEngineBackpressureBlocksAtQueueDepth's fill-calls=1 row) and
## reproduce the serial replay's alarms bit for bit in arbitrary chunks
## at 1-3 shards, with every call sent twice, with records grouped by
## vehicle and straight off decoded NVWIRE1 frames at 1 and 2
## (TestEngineMatchesSerialReplay's ingest-batch, resend, grouped and
## wire rows), and the
## HTTP front end must admit, journal, and reject end-to-end, on
## pooled decoders, inside its per-POST allocation bound (the ingest
## tests by name: `race` has just run the rest of the package).
ingest-smoke:
	$(call named,./internal/wire/,TestGoldenFrameFile|TestDecodeZeroAlloc|TestRoundTrip|TestDecodeRejectsCorruption|TestDecodeStreamReuse|TestDecodeStreamChecksHeaderBeforeAllocating|TestDecodeStreamRetainedBufferBound|TestDecodeInternBudget|TestEncoderAllocBound)
	$(call named-rows,./internal/fleet/,TestEngineMatchesSerialReplay/ingest-batch TestEngineMatchesSerialReplay/resend TestEngineMatchesSerialReplay/grouped TestEngineMatchesSerialReplay/wire TestEngineBackpressureBlocksAtQueueDepth/fill-calls=1 TestIngestBatchEmptyAndClosed TestIngestBatchDuringCheckpointBarrier TestIngestRecordAllocFree)
	$(call named,./cmd/navarchos-serve/,TestServeWireIngestEndToEnd|TestServeStreamEndpoint|TestServeRejectsCorruptUpload|TestServeTextFormats|TestIngest)

## bench-smoke: one iteration of the throughput (64 vehicles and the
## 400 x 2000 of ingest_burst, each at every shard count),
## vehicle-handoff, allocation, ingest-handler and fleet-generation
## (SmallConfig and fleet40; the 400 x 100 shape is left to a deliberate
## run) benchmarks, enough to catch a benchmark that no longer compiles
## or crashes.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFleetThroughput|BenchmarkVehicleHandoff|BenchmarkScoreInto|BenchmarkPipelineSteadyState|BenchmarkPipelineObserved|BenchmarkIngestHandler' -benchtime 1x \
		./internal/fleet/ ./internal/detector/closestpair/ ./internal/core/ ./cmd/navarchos-serve/
	$(GO) test -run '^$$' -bench 'BenchmarkFleetGeneration/^(small|fleet40)$$' -benchtime 1x .
