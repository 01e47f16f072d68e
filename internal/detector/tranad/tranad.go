// Package tranad implements a transformer-based reconstruction anomaly
// detector in the style of TranAD (Tuli, Casale & Jennings, VLDB 2022),
// the deep-learning comparator of the paper's step 3: a self-attention
// encoder over a short window of samples feeds two decoders; the second
// decoder is self-conditioned on the first one's reconstruction error
// (the "focus score"), and the anomaly score of a sample is the averaged
// reconstruction error of both decoders on the window's last position.
//
// Compared to the reference PyTorch implementation the model is
// miniaturised (small model dimension, single encoder block, focus score
// treated as a constant input during backpropagation) so that training
// stays tractable on a CPU in pure Go; what the paper relies on — a
// reconstruction model that learns healthy signal structure from Ref and
// produces elevated errors on behavioural change, trainable with few
// samples and epochs — is preserved.
//
// Fit is one deterministic procedure: per-window Adam steps over
// shuffled training windows, every epoch, from a seeded initialisation.
// It runs on the scratch-reuse nn kernels: training windows are
// zero-copy views into the standardised reference, and the network, its
// scratch and the optimiser's one contiguous weight/gradient/moment
// arena are built once per detector and re-initialised in place by
// every later fit (a refit allocates nothing). The optimisation
// trajectory is bit-identical, at every SIMD dispatch level, to the
// allocate-per-call path preserved behind Config.LegacyFitKernels.
package tranad

import (
	"math/rand"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/mat"
	"github.com/navarchos/pdm/internal/nn"
)

// Config parametrises the model.
type Config struct {
	// Window is the sequence length the encoder attends over (default 8).
	Window int
	// DModel is the model width; must be divisible by Heads (default 16).
	DModel int
	// Heads is the number of attention heads (default 2).
	Heads int
	// Epochs is the number of training passes over the window set
	// (default 8 — TranAD is explicitly designed to converge in few
	// epochs).
	Epochs int
	// LR is the Adam learning rate (default 0.005).
	LR float64
	// MaxWindows thins the training windows drawn from Ref (default
	// 512). It does not cap them: a reference with more windows than
	// this is evenly strided at the integer quotient total/MaxWindows,
	// which leaves fewer than 2 × MaxWindows — at Window 8 and
	// MaxWindows 256, 298 for a 900-row reference, 334 for the 675-row
	// head of one that the pipeline fits on, all 293 for a 300-row one.
	// Every trained weight depends on that count; it is pinned by
	// TestTrainingWindowCount and is not to be "repaired".
	MaxWindows int
	// Seed drives weight initialisation and shuffling (default 1).
	Seed int64
	// LegacyFitKernels restores the pre-optimisation allocate-per-call
	// training path (PR 2's LegacyKernels precedent). It is the oracle
	// of the kernel-equivalence tests.
	LegacyFitKernels bool
}

func (c *Config) defaults() {
	if c.Window <= 1 {
		c.Window = 8
	}
	if c.DModel <= 0 {
		c.DModel = 16
	}
	if c.Heads <= 0 {
		c.Heads = 2
	}
	if c.DModel%c.Heads != 0 {
		c.DModel = (c.DModel/c.Heads + 1) * c.Heads
	}
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.LR <= 0 {
		c.LR = 0.005
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// network is the model — the encoder, both decoders and the fusion
// layer — with its optimiser and the scratch a training step needs. A
// detector owns exactly one.
type network struct {
	enc  *nn.Sequential // d -> dm, positional, attention block
	dec1 *nn.Sequential // dm -> d
	fuse *nn.Linear     // dm+d -> dm (self-conditioning input of decoder 2)
	dec2 *nn.Sequential // dm -> d

	// inf holds typed references to the individual layers inside the
	// sequentials above, in evaluation order, for the scorer: inference
	// walks the layers directly through their row-block Apply/AttendLast
	// kernels instead of Forward-mapping every window.
	inf inferRefs

	// params is every trainable parameter across the four sub-nets in a
	// fixed order (also the snapshot serialisation order); opt is the
	// optimiser over them and the owner of their arena.
	params []*nn.Param
	opt    *nn.Adam

	g1, g2, foc, x2, dz mat.Matrix
	winView             mat.Matrix
}

// inferRefs names the layers of the model for row-level inference.
// fuse is the network's fuse Linear and is not repeated here.
type inferRefs struct {
	encLin *nn.Linear             // dim -> dm input projection
	pe     *nn.PositionalEncoding // sinusoidal table
	attn   *nn.SelfAttention      // inside the first residual block
	ln1    *nn.LayerNorm          // post-attention norm
	ffn1   *nn.Linear             // dm -> 2dm
	ffn2   *nn.Linear             // 2dm -> dm
	ln2    *nn.LayerNorm          // post-FFN norm
	dec1a  *nn.Linear             // dm -> dm
	dec1b  *nn.Linear             // dm -> dim
	dec2b  *nn.Linear             // dm -> dim (after the fuse ReLU)
}

// Detector is the TranAD-style reconstruction detector. It emits a
// single score channel (window reconstruction error).
type Detector struct {
	cfg Config
	dim int

	// standardisation from Ref
	means, stds []float64

	net *network // nil until the first Fit or Restore

	// fit scratch, reused by every refit: the standardised reference,
	// the window start offsets and the seeded generator
	std    mat.Matrix
	starts []int
	rng    *rand.Rand

	// streaming window of standardised samples
	ring [][]float64
	pos  int
	n    int

	// scoring state: the input projection of each ring slot is
	// position-independent, so it is computed once when the slot is
	// (re)written (or restored) and replayed until then. linBuf holds
	// slot s's projection at rows s and s+Window (DModel wide).
	linBuf []float64
	sc     scoreScratch
	one    [1][]float64 // ScoreInto's run of one
}

// scoreScratch holds the scorer's per-run blocks, each grown to the
// longest run seen, so a warm run no longer than that allocates nothing.
// Rows are run samples (std, lin) or scored windows (everything else;
// l1 has w rows per window).
type scoreScratch struct {
	std, lin     mat.Matrix // the run's standardised samples and their input projections
	l1           mat.Matrix // each window after input projection + positional encoding
	attnOut      mat.Matrix // dm: attention output for each last row
	res1, ln1    mat.Matrix // dm
	ffnH         mat.Matrix // 2dm
	ffnOut, res2 mat.Matrix // dm
	z            mat.Matrix // dm: encoder output for each last row
	d1h, fuseOut mat.Matrix // dm
	o1, o2       mat.Matrix // dim: both decoders' last-row reconstructions
	x2           mat.Matrix // dm+dim: fused decoder-2 input
}

// New returns a TranAD detector with the given configuration.
func New(cfg Config) *Detector {
	cfg.defaults()
	return &Detector{cfg: cfg}
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "tranad" }

// Channels implements detector.Detector.
func (d *Detector) Channels() int { return 1 }

// ChannelNames implements detector.Detector.
func (d *Detector) ChannelNames() []string { return []string{"reconstruction"} }

// Fit implements detector.Detector: it standardises Ref, builds training
// windows, and trains the encoder and both decoders with the two-term
// reconstruction loss.
func (d *Detector) Fit(ref [][]float64) error {
	if len(ref) == 0 {
		return detector.ErrEmptyReference
	}
	dim := len(ref[0])
	for _, row := range ref {
		if len(row) != dim {
			return detector.ErrDimension
		}
	}
	// The network and its optimiser arena are built once per detector and
	// input width; the legacy baseline rebuilds them on every fit.
	rebuild := d.net == nil || d.dim != dim || d.cfg.LegacyFitKernels
	d.dim = dim
	std := d.std.EnsureShape(len(ref), dim)
	for i, row := range ref {
		copy(std.Row(i), row)
	}
	if len(d.means) != dim {
		d.means, d.stds = make([]float64, dim), make([]float64, dim)
	}
	std.StandardizeInPlace(d.means, d.stds)

	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.cfg.Seed))
	} else {
		d.rng.Seed(d.cfg.Seed)
	}
	rng := d.rng
	if rebuild {
		d.net = d.newNetwork(dim, rng)
	} else {
		// A refit on the existing network: the same draws, in the same
		// order, as building it anew.
		nn.InitParams(d.net.params, rng)
		d.net.opt.Reset()
	}

	// Training windows: consecutive slices of the standardised Ref,
	// evenly strided to fewer than 2 × MaxWindows (see Config).
	w := d.cfg.Window
	starts := d.starts[:0]
	if std.Rows >= w {
		total := std.Rows - w + 1
		stride := 1
		if total > d.cfg.MaxWindows {
			stride = total / d.cfg.MaxWindows
		}
		for s := 0; s+w <= std.Rows; s += stride {
			starts = append(starts, s)
		}
	} else {
		// Reference shorter than a window: train on the whole profile
		// as one (short) sequence.
		starts = append(starts, 0)
		w = std.Rows
	}
	d.starts = starts

	for epoch := 0; epoch < d.cfg.Epochs; epoch++ {
		rng.Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
		for _, s := range starts {
			if d.cfg.LegacyFitKernels {
				win := mat.NewMatrix(w, dim)
				for r := 0; r < w; r++ {
					copy(win.Row(r), std.Row(s+r))
				}
				d.net.trainStepLegacy(win)
			} else {
				d.net.trainStep(std, s, w)
			}
		}
	}

	// A fresh score window. The rows are kept across refits at the same
	// width (a slot is rewritten before it is read); the legacy scorer
	// replaces them anyway.
	if len(d.ring) != d.cfg.Window {
		d.ring = make([][]float64, d.cfg.Window)
	}
	for i, row := range d.ring {
		if len(row) != dim {
			d.ring[i] = nil
		}
	}
	d.pos, d.n = 0, 0
	return nil
}

// newNetwork constructs the encoder, both decoders, the fusion layer
// and their optimiser for input dimensionality dim, in the configured
// kernel mode. rng seeds the weight initialisation; Restore builds the
// same architecture and then overwrites every weight from the snapshot,
// so there the rng values are discarded.
func (d *Detector) newNetwork(dim int, rng *rand.Rand) *network {
	dm := d.cfg.DModel
	// Layers are constructed in the exact order of the original
	// composite literals so the rng draws (and therefore the initial
	// weights) are unchanged; the locals feed both the sequentials and
	// the inferRefs.
	encLin := nn.NewLinear(dim, dm, rng)
	pe := nn.NewPositionalEncoding(dm)
	attn := nn.NewSelfAttention(dm, d.cfg.Heads, rng)
	ln1 := nn.NewLayerNorm(dm)
	ffn1 := nn.NewLinear(dm, 2*dm, rng)
	ffn2 := nn.NewLinear(2*dm, dm, rng)
	ln2 := nn.NewLayerNorm(dm)
	net := &network{
		enc: nn.NewSequential(
			encLin,
			pe,
			nn.NewResidual(attn),
			ln1,
			nn.NewResidual(nn.NewSequential(
				ffn1,
				nn.NewReLU(),
				ffn2,
			)),
			ln2,
		),
	}
	dec1a := nn.NewLinear(dm, dm, rng)
	dec1b := nn.NewLinear(dm, dim, rng)
	net.dec1 = nn.NewSequential(
		dec1a,
		nn.NewReLU(),
		dec1b,
	)
	net.fuse = nn.NewLinear(dm+dim, dm, rng)
	dec2b := nn.NewLinear(dm, dim, rng)
	net.dec2 = nn.NewSequential(
		nn.NewReLU(),
		dec2b,
	)
	net.inf = inferRefs{
		encLin: encLin, pe: pe, attn: attn,
		ln1: ln1, ffn1: ffn1, ffn2: ffn2, ln2: ln2,
		dec1a: dec1a, dec1b: dec1b, dec2b: dec2b,
	}
	for _, l := range []nn.Layer{net.enc, net.dec1, net.fuse, net.dec2} {
		net.params = append(net.params, l.Params()...)
		nn.SetLegacyKernels(l, d.cfg.LegacyFitKernels)
	}
	net.opt = nn.NewAdam(net.params, d.cfg.LR)
	net.opt.Legacy = d.cfg.LegacyFitKernels
	return net
}

// params is the network's parameter list (see network.params).
func (d *Detector) params() []*nn.Param {
	return d.net.params
}

// trainStep runs one forward/backward pass of the two-decoder loss on
// the w-row window starting at row s of std and applies Adam: the same
// operations as trainStepLegacy, on network-owned scratch. The window
// is a zero-copy view (w consecutive rows of std are contiguous in its
// backing slice), so a step copies nothing and — once the layer scratch
// is warm — allocates nothing.
func (n *network) trainStep(std *mat.Matrix, s, w int) {
	win := &n.winView
	win.Rows, win.Cols = w, std.Cols
	win.Data = std.Data[s*std.Cols : (s+w)*std.Cols]

	z := n.enc.Forward(win)
	o1 := n.dec1.Forward(z)
	_, g1 := nn.MSELossInto(&n.g1, o1, win)

	x2 := concatColsInto(&n.x2, z, focusInto(&n.foc, o1, win))
	o2 := n.dec2.Forward(n.fuse.Forward(x2))
	_, g2 := nn.MSELossInto(&n.g2, o2, win)

	dz1 := n.dec1.Backward(g1)
	dx2 := n.fuse.Backward(n.dec2.Backward(g2))
	// Only the z-columns of the fused input propagate into the encoder;
	// the focus score is treated as a constant (stop-gradient).
	dz := n.dz.EnsureShape(dz1.Rows, dz1.Cols)
	for r := 0; r < dz.Rows; r++ {
		zrow, z1row, frow := dz.Row(r), dz1.Row(r), dx2.Row(r)
		for c := range zrow {
			zrow[c] = z1row[c] + frow[c]
		}
	}
	n.enc.Backward(dz)
	n.opt.Step()
}

// trainStepLegacy runs one forward/backward pass on a window and applies
// Adam, allocating every intermediate — the pre-optimisation baseline.
func (n *network) trainStepLegacy(win *mat.Matrix) {
	z := n.enc.Forward(win)
	o1 := n.dec1.Forward(z)
	_, g1 := nn.MSELoss(o1, win)

	x2 := concatCols(z, focus(o1, win))
	o2 := n.dec2.Forward(n.fuse.Forward(x2))
	_, g2 := nn.MSELoss(o2, win)

	dz1 := n.dec1.Backward(g1)
	dx2 := n.fuse.Backward(n.dec2.Backward(g2))
	// Only the z-columns of the fused input propagate into the encoder;
	// the focus score is treated as a constant (stop-gradient).
	dz := dz1.Clone()
	for r := 0; r < dz.Rows; r++ {
		zrow := dz.Row(r)
		frow := dx2.Row(r)
		for c := 0; c < dz.Cols; c++ {
			zrow[c] += frow[c]
		}
	}
	n.enc.Backward(dz)
	n.opt.Step()
}

// focus returns the squared reconstruction error (O1 − W)², the
// self-conditioning input of decoder 2, in a fresh matrix by the scalar
// loop focusInto's kernel replays.
func focus(o1, win *mat.Matrix) *mat.Matrix {
	f := mat.NewMatrix(win.Rows, win.Cols)
	for i := range f.Data {
		diff := o1.Data[i] - win.Data[i]
		f.Data[i] = diff * diff
	}
	return f
}

// focusInto is the allocation-free focus.
func focusInto(f, o1, win *mat.Matrix) *mat.Matrix {
	f.EnsureShape(win.Rows, win.Cols)
	mat.SquaredDiff(f.Data, o1.Data[:len(f.Data)], win.Data[:len(f.Data)])
	return f
}

// concatCols returns [a | b] column-wise in a fresh matrix.
func concatCols(a, b *mat.Matrix) *mat.Matrix {
	out := mat.NewMatrix(a.Rows, a.Cols+b.Cols)
	for r := 0; r < a.Rows; r++ {
		copy(out.Row(r)[:a.Cols], a.Row(r))
		copy(out.Row(r)[a.Cols:], b.Row(r))
	}
	return out
}

// concatColsInto is the allocation-free concatCols.
func concatColsInto(out, a, b *mat.Matrix) *mat.Matrix {
	out.EnsureShape(a.Rows, a.Cols+b.Cols)
	mat.ConcatCols(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
	return out
}

// Score implements detector.Detector: it appends x to the streaming
// window and returns the averaged two-decoder reconstruction error of
// the window's last position. Until the window fills the score is 0 (no
// alarm can fire while context is insufficient). The allocation-free
// equivalent is ScoreInto (score.go).
func (d *Detector) Score(x []float64) ([]float64, error) {
	out := make([]float64, 1)
	if err := d.ScoreInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}
