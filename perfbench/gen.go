package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/rules"
)

// Workload sizes. They are part of the benchmark's definition: changing
// any of them changes what every metric means.
const (
	nobelRows      = 4000 // Nobel-4000, the clean-* KB
	tenantRows     = 1069 // Nobel-1069, the paper's size, one per tenant
	numTenants     = 8
	maxResident    = 2
	coldBodyRows   = 1000
	coldBodies     = 192
	zipfBodyRows   = 1000
	zipfBodies     = 32
	tenantBodyRows = 100
	tenantBodies   = 8 // bodies per tenant
	zipfSkew       = 1.1
	churnShare     = 0.01 // share of KB triples a churn delta touches
)

// noiseRate and typoFrac are the injection used by every workload:
// 30% of cells corrupted, mostly by typos, the rest by the dataset's
// semantic confusions (birth city for work city, and so on).
const (
	noiseRate = 0.3
	typoFrac  = 0.8
)

var nobelSchema = []string{"Name", "DOB", "Country", "Prize", "Institution", "City"}

// request is one /clean request of a workload's fixed sequence.
type request struct {
	path string // URL path and query on the public listener
	body []byte // CSV with header
	rows int
	// truth holds the ground-truth row of each body row, or is nil when
	// the workload does not check cells against truth.
	truth []*relation.Tuple
	cold  bool // tenant-churn: the target tenant is not resident
}

// inputs is everything a workload run needs, generated from the seed.
type inputs struct {
	dir   string
	rules []*rules.DR
	attrs []string
	// kbPath is the snapshot the child serves (tenant-churn: the hot
	// tenant's); deltaPath is a ~1%-churn DKBD delta against it.
	kbPath    string
	deltaPath string
	// tenantPaths are tenant-churn's snapshots, hot tenant first.
	tenantPaths []string
	rulesPath   string
	configPath  string // tenant-churn registry config
	reqs        []request
}

// generate writes the workload's files under dir and builds its
// request sequence. Everything derives from seed.
func generate(w *workloadSpec, seed int64, dir string) (*inputs, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{dir: dir, attrs: nobelSchema, rulesPath: filepath.Join(dir, "rules.dr")}
	if w.registry {
		return in, genTenants(in, seed)
	}
	b := dataset.NewNobel(seed, nobelRows)
	in.rules = b.Rules
	if err := writeRules(in.rulesPath, b.Rules); err != nil {
		return nil, err
	}
	in.kbPath = filepath.Join(dir, "kb.dkbs")
	in.deltaPath = filepath.Join(dir, "churn.dkbd")
	if err := writeKB(in.kbPath, in.deltaPath, b.Yago, seed); err != nil {
		return nil, err
	}
	noise := func(s int64) *dataset.Injected {
		return b.Inject(dataset.Noise{Rate: noiseRate, TypoFrac: typoFrac, Seed: s})
	}
	switch w.name {
	case "clean-cold":
		// Successive fresh injections over the same truth: each pass
		// re-corrupts every row differently, so rows rarely repeat.
		keep := unambiguous(b.Yago, b.Rules, b.Truth)
		var rows []*relation.Tuple
		var idx []int
		for p := int64(0); len(rows) < coldBodies*coldBodyRows; p++ {
			for i, t := range noise(seed*1009 + p + 1).Dirty.Tuples {
				if keep[i] {
					rows, idx = append(rows, t), append(idx, i)
				}
			}
		}
		in.reqs = bodies(rows, idx, b.Truth, coldBodyRows, "/clean?marked=1")[:coldBodies]
	case "clean-zipf":
		keep := unambiguous(b.Yago, b.Rules, b.Truth)
		scoped := &relation.Table{Schema: b.Schema}
		var scopedIdx []int
		for i, t := range noise(seed*1009 + 1).Dirty.Tuples {
			if keep[i] {
				scoped.Tuples = append(scoped.Tuples, t)
				scopedIdx = append(scopedIdx, i)
			}
		}
		rows, idx := zipfRows(scoped, seed, zipfBodies*zipfBodyRows)
		for i := range idx {
			idx[i] = scopedIdx[idx[i]]
		}
		in.reqs = bodies(rows, idx, b.Truth, zipfBodyRows, "/clean?marked=1")
	default:
		return nil, fmt.Errorf("no generator for workload %q", w.name)
	}
	return in, nil
}

// zipfRows draws n rows from tb with dataset.ZipfTable and returns them
// with the index of the source row each one copies. The draw depends
// only on (len(tb), seed, s, n), so drawing over an index-tagged copy
// of tb recovers the indexes.
func zipfRows(tb *relation.Table, seed int64, n int) ([]*relation.Tuple, []int) {
	tagged := &relation.Table{Schema: tb.Schema}
	for i, t := range tb.Tuples {
		tagged.Tuples = append(tagged.Tuples, relation.NewTuple(append(append([]string(nil), t.Values...), strconv.Itoa(i))...))
	}
	z := dataset.ZipfTable(tagged, seed, zipfSkew, n)
	rows := make([]*relation.Tuple, len(z.Tuples))
	idx := make([]int, len(z.Tuples))
	for i, t := range z.Tuples {
		last := len(t.Values) - 1
		idx[i], _ = strconv.Atoi(t.Values[last])
		rows[i] = relation.NewTuple(t.Values[:last]...)
	}
	return rows, idx
}

// bodies cuts rows into per-row-count CSV request bodies. idx maps each
// row to its truth row; truth may be nil (no cell oracle).
func bodies(rows []*relation.Tuple, idx []int, truth *relation.Table, per int, path string) []request {
	var out []request
	for lo := 0; lo+per <= len(rows); lo += per {
		r := request{path: path, body: encodeCSV(rows[lo : lo+per]), rows: per}
		if truth != nil {
			r.truth = make([]*relation.Tuple, per)
			for i := range r.truth {
				r.truth[i] = truth.Tuples[idx[lo+i]]
			}
		}
		out = append(out, r)
	}
	return out
}

func encodeCSV(rows []*relation.Tuple) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	_ = cw.Write(nobelSchema)
	for _, t := range rows {
		_ = cw.Write(t.Values)
	}
	cw.Flush()
	return buf.Bytes()
}

func writeRules(path string, rs []*rules.DR) error {
	var buf bytes.Buffer
	if err := rules.EncodeRules(&buf, rs); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// writeKB writes g as a DKBS v2 snapshot and, when deltaPath is set, a
// DKBD delta from g to a churned copy of it.
func writeKB(snapPath, deltaPath string, g *kb.Graph, seed int64) error {
	var buf bytes.Buffer
	if err := g.WriteSnapshotV2(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(snapPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if deltaPath == "" {
		return nil
	}
	churned, err := churn(g, seed)
	if err != nil {
		return err
	}
	buf.Reset()
	if err := kb.Diff(g, churned).Write(&buf); err != nil {
		return err
	}
	return os.WriteFile(deltaPath, buf.Bytes(), 0o644)
}

// churn returns a copy of g with about churnShare of its triples
// changed: half of the ops remove random relationship or property
// facts, half add facts about fresh entities whose names are far from
// every existing name, so they never become repair candidates.
func churn(g *kb.Graph, seed int64) (*kb.Graph, error) {
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var facts []int
	for i, l := range lines {
		if !strings.Contains(l, "> <type> <") && !strings.Contains(l, "> <subClassOf> <") {
			facts = append(facts, i)
		}
	}
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	k := int(churnShare * float64(g.NumTriples()) / 2)
	drop := make(map[int]bool, k)
	for _, j := range rng.Perm(len(facts))[:k] {
		drop[facts[j]] = true
	}
	var out strings.Builder
	for i, l := range lines {
		if !drop[i] {
			out.WriteString(l)
			out.WriteByte('\n')
		}
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(&out, "<zq churn entity %d-%d> <worksAt> <zq churn org %d>\n", seed, i, rng.Intn(k+1))
	}
	return kb.Parse(strings.NewReader(out.String()))
}

// genTenants builds tenant-churn: numTenants Nobel-1069 tenants (seed +
// i), each with its own snapshot, one shared rule file, and a request
// sequence alternating the hot tenant with the next cold one.
func genTenants(in *inputs, seed int64) error {
	type tenantCfg struct {
		Name     string `json:"name"`
		Snapshot string `json:"snapshot"`
	}
	var cfg struct {
		MaxResident int `json:"maxResident"`
		Defaults    struct {
			Rules  string   `json:"rules"`
			Schema []string `json:"schema"`
		} `json:"defaults"`
		Tenants []tenantCfg `json:"tenants"`
	}
	cfg.MaxResident = maxResident
	cfg.Defaults.Rules = in.rulesPath
	cfg.Defaults.Schema = nobelSchema
	perTenant := make([][]request, numTenants)
	for i := 0; i < numTenants; i++ {
		b := dataset.NewNobel(seed+int64(i), tenantRows)
		if i == 0 {
			in.rules = b.Rules
			if err := writeRules(in.rulesPath, b.Rules); err != nil {
				return err
			}
		}
		name := tenantName(i)
		snap := filepath.Join(in.dir, name+".dkbs")
		delta := ""
		if i == 0 {
			delta = filepath.Join(in.dir, "churn.dkbd")
			in.kbPath, in.deltaPath = snap, delta
		}
		if err := writeKB(snap, delta, b.Yago, seed+int64(i)); err != nil {
			return err
		}
		in.tenantPaths = append(in.tenantPaths, snap)
		cfg.Tenants = append(cfg.Tenants, tenantCfg{Name: name, Snapshot: snap})
		inj := b.Inject(dataset.Noise{Rate: noiseRate, TypoFrac: typoFrac, Seed: (seed+int64(i))*1009 + 1})
		idx := make([]int, inj.Dirty.Len())
		for j := range idx {
			idx[j] = j
		}
		perTenant[i] = bodies(inj.Dirty.Tuples[:tenantBodies*tenantBodyRows], idx, nil, tenantBodyRows,
			"/v1/"+name+"/clean?marked=1")
	}
	// Hot, cold 1, hot, cold 2, ... cold 7, hot, cold 1, ...: every
	// second request admits the next cold tenant, which evicts the one
	// before it (the hot tenant is always more recently used).
	cycle := numTenants - 1
	for j := 0; j < 2*cycle*tenantBodies; j++ {
		if j%2 == 0 {
			in.reqs = append(in.reqs, perTenant[0][(j/2)%tenantBodies])
			continue
		}
		k := j / 2
		r := perTenant[1+k%cycle][(k/cycle)%tenantBodies]
		r.cold = true
		in.reqs = append(in.reqs, r)
	}
	in.configPath = filepath.Join(in.dir, "tenants.json")
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(in.configPath, data, 0o644)
}

func tenantName(i int) string { return "t" + strconv.Itoa(i) }
