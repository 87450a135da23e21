package main

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"atmatrix/internal/core"
	"atmatrix/internal/expr"
	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
	"atmatrix/internal/numa"
)

// verifyRounds is the Freivalds round count the server runs with (-verify).
const verifyRounds = 2

// operand is one generated input matrix: its upload bytes for the server
// and its in-process forms for the reference products and the traced run.
type operand struct {
	name string
	bin  []byte         // binary COO, the upload body
	atm  *core.ATMatrix // partitioned with the workload's config
	csr  *mat.CSR
}

func newOperand(name string, coo *mat.COO, cfg core.Config) (*operand, error) {
	var buf bytes.Buffer
	if err := mmio.WriteBinary(&buf, coo); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", name, err)
	}
	a, _, err := core.Partition(coo, cfg)
	if err != nil {
		return nil, fmt.Errorf("partitioning %s: %w", name, err)
	}
	return &operand{name: name, bin: buf.Bytes(), atm: a, csr: coo.ToCSR()}, nil
}

// jobKind is the request sequence a job sends.
type jobKind int

const (
	// kindPair multiplies a resident operand by itself.
	kindPair jobKind = iota
	// kindIngest uploads a fresh matrix, multiplies it by itself and
	// deletes it.
	kindIngest
	// kindStored multiplies a resident operand by itself storing the
	// product, multiplies the stored product by the operand again, and
	// deletes the product.
	kindStored
	// kindEval evaluates an expression over resident operands.
	kindEval
)

// shape is what every response must match: the product's dimensions and
// non-zero count.
type shape struct {
	Rows int   `json:"rows"`
	Cols int   `json:"cols"`
	NNZ  int64 `json:"nnz"`
}

func shapeOf(a *core.ATMatrix) shape { return shape{a.Rows, a.Cols, a.NNZ()} }

// template is one job of a workload's mix.
type template struct {
	kind  jobKind
	label string   // the job's kind in the latency statistics
	op    *operand // kindPair, kindIngest, kindStored
	expr  string   // kindEval
	// want holds the expected result of each multiply or eval request of
	// the job, in order.
	want []shape
	// flops holds the floating-point operations (two per multiply-add)
	// of each pair product of the job, from the operands' CSR structure.
	flops []int64
}

// workload is a named traffic mix with its inputs.
type workload struct {
	name      string
	cfg       core.Config
	cluster   bool
	resident  []*operand // loaded at set-up
	templates []*template
	census    int // jobs of the mix that the deterministic counts cover
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"structured-mix", "hypersparse-ingest", "cluster-mult"}

// ingestPool is the number of distinct matrices hypersparse-ingest cycles
// through.
const ingestPool = 32

// scale is the linear scale of every workload's Table I stand-ins.
const scale = 1.0 / 32

// config is the server's configuration at a linear scale: the detected
// LLC, b_atomic = 1024·scale rounded down to a power of two (at least 16),
// the rule internal/exp uses, and one simulated socket of two cores.
func config(scale float64) core.Config {
	cfg := core.DefaultConfig()
	b := max(int(1024*scale), 16)
	cfg.BAtomic = 1 << (bits.Len(uint(b)) - 1)
	cfg.Topology = numa.Topology{Sockets: 1, CoresPerSocket: 2}
	return cfg
}

// multOptions are the options the server multiplies pairs with.
func multOptions() core.MultOptions {
	o := core.DefaultMultOptions()
	o.Verify = verifyRounds
	return o
}

// subSeed derives the generator seed of one matrix from the workload seed.
func subSeed(seed int64, k int64) int64 { return seed*1_000_003 + k }

// standIn generates the Table I stand-in id at the given scale. Its
// structure is the one internal/exp benchmarks, from the stand-in's
// generator seed offset by variant; seed draws only its values. Every
// seed so multiplies the same structures, which set the work of a
// product, and the spread between runs with different seeds is the
// machine's, not the inputs'.
func standIn(id string, scale float64, variant, seed int64) (*mat.COO, error) {
	s, err := gen.Lookup(id)
	if err != nil {
		return nil, err
	}
	s.Seed += variant
	coo, err := s.Generate(scale)
	if err != nil {
		return nil, err
	}
	revalue(coo, subSeed(seed, s.Seed))
	return coo, nil
}

// revalue draws every value of m anew from seed, uniform in [0.5, 1.5),
// so no sum of products cancels to zero.
func revalue(m *mat.COO, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Ent {
		m.Ent[i].Val = rng.Float64() + 0.5
	}
}

// buildWorkload generates the inputs of a workload from seed and computes
// every reference product, checking each against the plain CSR operator.
func buildWorkload(name string, seed int64) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case "structured-mix", "cluster-mult":
		w, err = buildStructured(name, seed)
	case "hypersparse-ingest":
		w, err = buildIngest(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	ops := make(map[string]*operand, len(w.resident))
	for _, o := range w.resident {
		ops[o.name] = o
	}
	for _, t := range w.templates {
		if err := t.reference(w.cfg, ops); err != nil {
			return nil, fmt.Errorf("%s: reference: %w", name, err)
		}
	}
	return w, nil
}

// buildStructured makes the R1, R3, G1, G5 pair mix. On the cluster, the
// R1 job stores its product and multiplies it again; on a single server,
// structured-mix adds two /v1/eval jobs: pow(R3,10)*x, a chain of
// products with a vector that the expr planner fuses, and the 3-term
// chain H*N*S over Hamiltonian, power-network and structural operands,
// whose stages ATMULT materializes.
func buildStructured(name string, seed int64) (*workload, error) {
	w := &workload{name: name, cfg: config(scale), cluster: name == "cluster-mult"}
	for _, id := range []string{"R1", "R3", "G1", "G5"} {
		coo, err := standIn(id, scale, 0, seed)
		if err != nil {
			return nil, err
		}
		op, err := newOperand(id, coo, w.cfg)
		if err != nil {
			return nil, err
		}
		w.resident = append(w.resident, op)
		kind := kindPair
		if w.cluster && id == "R1" {
			kind = kindStored
		}
		w.templates = append(w.templates, &template{kind: kind, label: id, op: op})
	}
	if !w.cluster {
		if err := w.addEval(seed); err != nil {
			return nil, err
		}
	}
	w.census = len(w.templates)
	return w, nil
}

// Chain operands of structured-mix: three structured classes at one
// dimension, sized so the chain evaluates in tens of milliseconds.
const (
	chainDim       = 1191
	chainNNZ int64 = 10_000
)

// addEval adds the vector x over R3's rows, the chain operands and the two
// eval jobs to a workload that holds R3. As with the stand-ins, the chain
// operands' structure is fixed and seed draws their values.
func (w *workload) addEval(seed int64) error {
	r3 := w.resident[1].csr
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	x := mat.NewCOO(r3.Rows, 1)
	for i := 0; i < r3.Rows; i++ {
		x.Append(i, 0, rng.Float64()+0.5)
	}
	inputs := []struct {
		name string
		coo  *mat.COO
	}{{"x", x}}
	for i, c := range []struct {
		name  string
		class gen.Class
	}{{"H", gen.Hamiltonian}, {"N", gen.PowerNetwork}, {"S", gen.Structural}} {
		coo, err := gen.Generate(c.class, chainDim, chainNNZ, int64(2+i))
		if err != nil {
			return err
		}
		revalue(coo, subSeed(seed, int64(2+i)))
		inputs = append(inputs, struct {
			name string
			coo  *mat.COO
		}{c.name, coo})
	}
	for _, in := range inputs {
		op, err := newOperand(in.name, in.coo, w.cfg)
		if err != nil {
			return err
		}
		w.resident = append(w.resident, op)
	}
	for _, e := range []string{"pow(R3,10)*x", "H*N*S"} {
		w.templates = append(w.templates, &template{kind: kindEval, label: e, expr: e})
	}
	return nil
}

// buildIngest makes the pool of distinct R7- and R9-class matrices,
// alternating classes.
func buildIngest(seed int64) (*workload, error) {
	w := &workload{name: "hypersparse-ingest", cfg: config(scale)}
	for i := 0; i < ingestPool; i++ {
		id := []string{"R7", "R9"}[i%2]
		coo, err := standIn(id, scale, int64(i), seed)
		if err != nil {
			return nil, err
		}
		op, err := newOperand(fmt.Sprintf("%s-%d", id, i), coo, w.cfg)
		if err != nil {
			return nil, err
		}
		w.templates = append(w.templates, &template{kind: kindIngest, label: id, op: op})
	}
	w.census = 2
	return w, nil
}

// job returns the template of a client's j-th job: each client walks the
// mix round-robin, the second starting halfway through it.
func (w *workload) job(client, j int) *template {
	n := len(w.templates)
	return w.templates[(j+client*n/2)%n]
}

// reference computes the job's expected results in process with the
// server's configuration and checks each against the plain CSR operator
// of core/plain.go.
func (t *template) reference(cfg core.Config, ops map[string]*operand) error {
	switch t.kind {
	case kindPair, kindIngest, kindStored:
		c, _, err := core.MultiplyOpt(t.op.atm, t.op.atm, cfg, multOptions())
		if err != nil {
			return err
		}
		ref, err := core.MulSpSpSp(t.op.csr, t.op.csr, cfg)
		if err != nil {
			return err
		}
		if err := compareCSR(c.ToCSR(), ref); err != nil {
			return fmt.Errorf("%s·%s: %w", t.op.name, t.op.name, err)
		}
		t.want = []shape{shapeOf(c)}
		t.flops = []int64{flops(t.op.csr, t.op.csr)}
		if t.kind != kindStored {
			return nil
		}
		// The server stores the product repartitioned, as every stored
		// result, and multiplies that layout again.
		p, _, err := c.Repartition(cfg)
		if err != nil {
			return err
		}
		c2, _, err := core.MultiplyOpt(p, t.op.atm, cfg, multOptions())
		if err != nil {
			return err
		}
		ref2, err := core.MulSpSpSp(ref, t.op.csr, cfg)
		if err != nil {
			return err
		}
		if err := compareCSR(c2.ToCSR(), ref2); err != nil {
			return fmt.Errorf("(%s·%s)·%s: %w", t.op.name, t.op.name, t.op.name, err)
		}
		t.want = append(t.want, shapeOf(c2))
		t.flops = append(t.flops, flops(ref, t.op.csr))
		return nil
	case kindEval:
		node, err := expr.Parse(t.expr)
		if err != nil {
			return err
		}
		bind := make(map[string]*core.ATMatrix)
		for _, v := range expr.Vars(node) {
			bind[v] = ops[v].atm
		}
		out, _, _, err := expr.Eval(t.expr, bind, cfg, expr.Options{Mult: core.DefaultMultOptions()})
		if err != nil {
			return err
		}
		ref, err := evalCSR(t.expr, ops, cfg)
		if err != nil {
			return err
		}
		if err := compareCSR(out.ToCSR(), ref); err != nil {
			return fmt.Errorf("%s: %w", t.expr, err)
		}
		t.want = []shape{shapeOf(out)}
		return nil
	}
	return fmt.Errorf("unknown job kind %d", t.kind)
}

// evalCSR evaluates the two expression forms of structured-mix with the
// plain CSR operator, right to left so that pow(P,k)*x is k products with
// a vector.
func evalCSR(src string, ops map[string]*operand, cfg core.Config) (*mat.CSR, error) {
	root, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	prod, ok := root.(*expr.Mul)
	if !ok {
		return nil, fmt.Errorf("reference: %s is not a product", src)
	}
	var acc *mat.CSR
	mul := func(m *mat.CSR) error {
		if acc == nil {
			acc = m
			return nil
		}
		acc, err = core.MulSpSpSp(m, acc, cfg)
		return err
	}
	for i := len(prod.Factors) - 1; i >= 0; i-- {
		switch f := prod.Factors[i].(type) {
		case *expr.Ident:
			if err := mul(ops[f.Name].csr); err != nil {
				return nil, err
			}
		case *expr.Pow:
			id, ok := f.X.(*expr.Ident)
			if !ok {
				return nil, fmt.Errorf("reference: unsupported power %s", f)
			}
			for k := 0; k < f.K; k++ {
				if err := mul(ops[id.Name].csr); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("reference: unsupported factor %s", f)
		}
	}
	return acc, nil
}

// compareCSR checks got against want entry by entry: an entry present in
// only one of them must be zero, and values agree to a relative tolerance
// of the largest reference magnitude.
func compareCSR(got, want *mat.CSR) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %d×%d, want %d×%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	var scale float64
	for _, v := range want.Val {
		scale = math.Max(scale, math.Abs(v))
	}
	tol := 1e-9 * math.Max(scale, 1)
	acc := make([]float64, got.Cols)
	seen := make([]bool, got.Cols)
	for r := 0; r < got.Rows; r++ {
		gc, gv := got.Row(r)
		for i, c := range gc {
			acc[c] += gv[i]
			seen[c] = true
		}
		wc, wv := want.Row(r)
		for i, c := range wc {
			if d := math.Abs(acc[c] - wv[i]); d > tol {
				return fmt.Errorf("entry (%d,%d) = %g, want %g", r, c, acc[c], wv[i])
			}
			acc[c], seen[c] = 0, false
		}
		for _, c := range gc {
			if seen[c] {
				if math.Abs(acc[c]) > tol {
					return fmt.Errorf("entry (%d,%d) = %g, want 0", r, c, acc[c])
				}
				acc[c], seen[c] = 0, false
			}
		}
	}
	return nil
}

// flops counts the floating-point operations of the product a·b, two per
// multiply-add: the sum over k of nnz(a[:,k])·nnz(b[k,:]), doubled.
func flops(a, b *mat.CSR) int64 {
	colNNZ := make([]int64, a.Cols)
	for _, c := range a.ColIdx {
		colNNZ[c]++
	}
	var n int64
	for k := 0; k < b.Rows; k++ {
		n += colNNZ[k] * (b.RowPtr[k+1] - b.RowPtr[k])
	}
	return 2 * n
}
