GO ?= go

.PHONY: ci check vet build build-arm64 test race race-fleet grid-equiv resume-gate drain-gate kernel-oracles fuzz-smoke bench-smoke vet-obs obs-overhead trace-overhead ingest-smoke bench-micro

## ci: the full gate — vet (gofmt, go vet, the obs metric-doc check),
## build (plus the arm64 cross-build that keeps the non-amd64 kernel
## stubs honest), race-enabled tests (the concurrent fleet/fitpool
## packages in a twice-run pass of their own), the grid equivalence gate, the
## checkpoint resume and vehicle drain gates, the SIMD kernel oracles by
## name, the wire-ingest smoke, the observer and tracing overhead gates,
## the codec and kernel fuzz smokes, and one iteration of every Go
## benchmark. Every target tests behaviour and none writes into the
## checkout; performance is measured by `bash benchmark/run.sh`, not
## here. The targets run one after another, stopping at the first
## failure, and a table of each one's wall time closes the run: a gate
## that costs minutes to re-prove what another already proved shows up
## there.
CI_TARGETS = vet-obs build build-arm64 race race-fleet grid-equiv resume-gate drain-gate kernel-oracles ingest-smoke obs-overhead trace-overhead fuzz-smoke bench-smoke bench-micro
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
## its samples) and the fitpool — with count=2 so the scheduler
## interleaves differently across runs. `race` leaves these to this
## target.
race-fleet:
	$(GO) test -race -count=2 ./internal/fleet/... ./internal/core/... ./internal/fitpool/...

## grid-equiv: the transform-once grid must reproduce, cell for cell,
## the re-stream-per-technique reference that now lives beside the test
## (internal/eval/reference_test.go), materialise each (kind, vehicle)
## stream exactly once, and replay thresholds exactly as the reference's
## per-sample loop does; and the legacy fit kernels and scorer must land
## on the same cells as the shipped detectors.
grid-equiv:
	$(call named,./internal/eval/,TestRunGridCachedMatchesReference|TestRunGridKernelOraclesMatchDefaults|TestRunGridTransformOnce|TestSweepReplayZeroAlloc)

## resume-gate: checkpointing a live engine mid-stream and restoring at
## a different shard count must be bit-identical to an uninterrupted
## run, for every paper technique × transform — and so must running the
## same stream under a fully enabled observer, or through the traced
## batch-ingest path with per-frame provenance attached. The checkpoint
## stream itself, every transform's emitted vectors and snapshots, and
## the pipeline's alarms, trace rows and journal over the small fleet
## (inline and deferred fits) are held to the SHA-256 digests earlier
## commits wrote (testdata/engine_small.ckpt.sha256,
## testdata/transform.sha256, testdata/pipeline.sha256; never
## regenerated from the change under test).
resume-gate:
	$(call named,./internal/fleet/,TestEngineCheckpointResumeGate|TestEngineObservedBitIdentity|TestEngineTracedBitIdentity|TestCheckpointBytesGolden)
	$(call named,./internal/transform/,TestTransformGolden)
	$(call named,./internal/core/,TestPipelineGolden)

## drain-gate: live vehicle handoff must not cost a bit — extracting
## vehicles from a running engine and adopting them at a different
## shard count (directly and over the HTTP handoff wire path) must
## reproduce the single-engine replay's alarms
## Float64bits-identically, with ingest during the move refused via the
## typed 409, never dropped. The whole-engine checkpoint is built from
## the same per-vehicle codec the handoff uses; its half of that one
## serialization path is resume-gate's to pin, not re-run here.
drain-gate:
	$(call named,./internal/fleet/,TestVehicleHandoffDrainGate|TestVehicleHandoffDrainGateTraced|TestConcurrentMigrationIngest)
	$(call named,./cmd/navarchos-serve/,TestServeDrainHandoff|TestServeAdoptionOverridesRing)

## kernel-oracles: the SIMD kernels against their scalar references, by
## name — the exp lanes against math.Exp and against a transcription of
## each of its two branches, the softmax rows, the layer-norm and
## element-wise kernels, the fast LayerNorm against the legacy one, the
## Adam step's bias-correction table against math.Pow — the shipped
## TranAD against its legacy oracle and the snapshots an earlier commit
## wrote, its run scorer against ScoreInto, and the detect stage's runs
## over a cached trace against the streaming pipeline. `race` runs them
## as well; naming them here makes a renamed or deleted oracle fail the
## gate instead of dropping out.
kernel-oracles:
	$(call named,./internal/mat/,TestExpLanesMatchMathExp|TestExpBranchesMatchTranscription|TestSoftmaxRowsBitIdentical|TestNormRowBitIdentical|TestNormKernelsBitIdentical|TestElementwiseBitIdentical|TestConcatColsBitIdentical)
	$(call named,./internal/nn/,TestLayerNormFastMatchesLegacy|TestFastKernelsBitIdenticalToLegacy|TestAdamBiasTableMatchesPow)
	$(call named,./internal/detector/tranad/,TestShippedConfigBitIdenticalToLegacy|TestShippedSnapshotsFromParentCommit|TestScorePathsBitIdentical|TestScoreRunMatchesScoreInto)
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
## decoder, and the per-vehicle state codec that handoff frames carry —
## and of the two numeric kernels whose shape and content the fuzzer can
## steer. The codecs must reject arbitrary corruption with typed
## errors, never a panic or an over-read, and accepted vehicle states
## must re-encode canonically; mat.Product must match its scalar loops
## bit for bit at any shape, stride and content and touch nothing
## outside Out, and mat.SoftmaxRows must match softmaxRow at any row
## length, count, scale and content and touch nothing outside its rows.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzCheckpointRoundTrip' -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz 'FuzzWireDecode' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzVehicleStateRoundTrip' -fuzztime 10s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz 'FuzzProduct' -fuzztime 10s ./internal/mat/
	$(GO) test -run '^$$' -fuzz 'FuzzSoftmaxRows' -fuzztime 10s ./internal/mat/

## ingest-smoke: the wire data-plane gates at test scale — the committed
## golden frame file must decode byte-stably, the decoder must hold its
## zero-allocation steady state, a reused decoder must deliver what a
## fresh one does, refuse a bad header before sizing a buffer from it
## and give back oversized buffers when its stream ends, IngestBatch
## must reproduce Replay's alarms bit-for-bit at 1 and 2 shards
## (including straight off decoded NVWIRE1 frames) and admit with no
## allocation from one item per call to a whole frame, and the HTTP front
## end must admit, journal, and reject end-to-end, on pooled decoders,
## inside its per-POST allocation bound (the ingest tests by name: `race`
## has just run the rest of the package).
ingest-smoke:
	$(call named,./internal/wire/,TestGoldenFrameFile|TestDecodeZeroAlloc|TestRoundTrip|TestDecodeRejectsCorruption|TestDecodeStreamReuse|TestDecodeStreamChecksHeaderBeforeAllocating|TestDecodeStreamRetainedBufferBound|TestDecodeInternBudget)
	$(call named,./internal/fleet/,TestIngestBatch|TestIngestRecordAllocFree|TestWireVsReplayAlarmIdentity)
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
