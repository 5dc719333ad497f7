// Package serve turns persisted model artifacts into the scoring service
// the paper's deployment stage calls for: an in-memory model registry fed
// from an artifact directory, fronted by an HTTP JSON API hardened for
// production traffic. POST /score answers bounded batches, POST
// /score/stream scores NDJSON feeds of any length in constant memory,
// GET /models and GET /healthz report the registry (readiness goes 503
// while zero models are loaded, so a routing tier never sends traffic to
// a replica that can only 404), GET /metrics exposes live counters in
// Prometheus text format, and POST /reload hot-swaps the whole model set
// — either one-shot, or two-phase via /reload/prepare + /reload/commit
// for fleet-atomic rollout. Loaded models are immutable, so any number of requests
// can score against one registry concurrently; admission control caps the
// in-flight scoring requests and deadlines bound every read and write.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"roadcrash/internal/artifact"
	"roadcrash/internal/compiled"
	"roadcrash/internal/data"
	"roadcrash/internal/engine"
)

// Model is one servable entry: the artifact's header (its payload is
// dropped once decoded), its learner and the row mapper aligning request
// attributes to the training schema. All fields are read-only after
// load. Scorer is the compiled evaluation form (flat trees, precomputed
// Bayes tables, fused ensembles) — compilation happens once at load,
// predictions stay bit-identical to the interpreted learner, and every
// request scores against the compiled engine.
type Model struct {
	Artifact *artifact.Artifact
	Scorer   compiled.ColumnScorer
	Mapper   *artifact.RowMapper

	// Version is 12 hex digits of the SHA-256 of the artifact file's
	// bytes (of its Encode bytes, the ones WriteFile writes, for an
	// artifact registered from memory). A file the tools write keeps its
	// version however often it is loaded; the same artifact re-rendered
	// in another layout is a new version. The feedback loop keys its
	// score join window and online metrics by it, so an incumbent and a
	// shadow candidate that happen to share a name never pollute each
	// other's statistics.
	Version string

	// statePool recycles /score request state (parser + batch scorer, see
	// fastpath.go) across requests for this model; schemaLevels is the
	// training schema's nominal level count, the baseline for the pool's
	// bloat cutoff. A Model is always handled by pointer, so pooled state
	// never outlives a registry swap — dropped models take their pools
	// with them.
	statePool    sync.Pool
	schemaLevels int

	// schema is the request schema of every /score and /score/stream
	// row, and segCol the index of its segment_id join column (see
	// requestSchema). Both are fixed at load, whether or not the server
	// runs the feedback loop.
	schema []data.Attribute
	segCol int
}

// buildModel compiles an artifact's decoded learner, builds its row
// mapper and sets Version from raw, the bytes the artifact was decoded
// from. The model keeps a copy of the artifact's header without its
// payload, and nothing of raw: once decoded and hashed, those bytes are
// not read again, so a loaded model does not hold them. The caller's
// artifact is not changed.
func buildModel(a *artifact.Artifact, scorer artifact.Scorer, raw []byte) (*Model, error) {
	cs, err := compiled.Compile(scorer)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", a.Name, err)
	}
	mapper, err := artifact.NewRowMapper(a)
	if err != nil {
		return nil, err
	}
	levels := 0
	for _, at := range mapper.Attrs() {
		levels += len(at.Levels)
	}
	sum := sha256.Sum256(raw)
	header := *a
	header.Payload = nil
	schema, segCol := requestSchema(mapper.Attrs())
	return &Model{
		Artifact: &header, Scorer: cs, Mapper: mapper,
		Version: hex.EncodeToString(sum[:6]), schemaLevels: levels,
		schema: schema, segCol: segCol,
	}, nil
}

// requestSchema returns the training schema plus an interval segment_id
// column when it lacks one, and the index of the segment_id column, or -1
// when the training schema makes it nominal, which leaves the feedback
// loop nothing to join on. The scorer skips a column outside the training
// schema, so the added one never changes a risk.
func requestSchema(train []data.Attribute) ([]data.Attribute, int) {
	for j, at := range train {
		if at.Name == segmentIDAttr {
			if at.Kind == data.Nominal {
				return train, -1
			}
			return train, j
		}
	}
	schema := slices.Concat(train, []data.Attribute{{Name: segmentIDAttr, Kind: data.Interval}})
	return schema, len(schema) - 1
}

// Registry is a concurrent-safe name -> model table. Mutations swap
// either one entry (Register) or the whole table (ReloadDir) under the
// write lock, so a reader always observes a complete model set — never a
// half-applied rollover.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*Model
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*Model)}
}

// Register decodes the artifact's learner, builds its row mapper and adds
// it under its artifact name, versioned by its Encode bytes: the bytes
// WriteFile writes, so a model registered from memory and the same model
// loaded from its file are one version. Re-registering a name replaces
// the previous model (in-place single-model rollover); requests already
// scoring against the old model finish on it.
func (r *Registry) Register(a *artifact.Artifact) (*Model, error) {
	var raw bytes.Buffer
	if err := a.Encode(&raw); err != nil {
		return nil, err
	}
	scorer, err := a.Model()
	if err != nil {
		return nil, err
	}
	return r.add(a, scorer, raw.Bytes())
}

// LoadFile reads, validates and registers one artifact file.
func (r *Registry) LoadFile(path string) (*Model, error) {
	a, scorer, raw, err := artifact.ReadFileModel(path)
	if err != nil {
		return nil, err
	}
	return r.add(a, scorer, raw)
}

// add builds the model of a decoded artifact and puts it under the
// artifact's name.
func (r *Registry) add(a *artifact.Artifact, scorer artifact.Scorer, raw []byte) (*Model, error) {
	m, err := buildModel(a, scorer, raw)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.models[a.Name] = m
	r.mu.Unlock()
	return m, nil
}

// loadModels reads and decodes every *.json artifact in dir into a fresh
// table. The files are read, decoded, compiled and hashed concurrently on
// up to GOMAXPROCS goroutines (engine.Map), so a load takes about as long
// as its largest artifact. The results are then checked in file-name
// order, and the first error met in that order is the one returned,
// whichever file finished first. Two files carrying the same artifact
// name are an error — one would silently shadow the other — and so is a
// directory with no artifacts: a scoring service with zero models is a
// deployment mistake worth failing on.
func loadModels(dir string) (map[string]*Model, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	var files []string // sorted: os.ReadDir sorts by file name
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("serve: no model artifacts (*.json) in %s", dir)
	}
	// A task hands its error back in its result, never to Map: Map would
	// stop at a corrupt c.json before the walk below could report a
	// duplicate name carried by a.json and b.json.
	type loaded struct {
		m   *Model
		err error
	}
	results, _ := engine.Map(0, len(files), func(i int) (loaded, error) {
		a, scorer, raw, err := artifact.ReadFileModel(filepath.Join(dir, files[i]))
		if err != nil {
			return loaded{err: err}, nil
		}
		m, err := buildModel(a, scorer, raw)
		return loaded{m, err}, nil
	})
	models := make(map[string]*Model, len(files))
	fileFor := make(map[string]string, len(files))
	names := make([]string, 0, len(files))
	for i, r := range results {
		if r.err != nil {
			return nil, nil, fmt.Errorf("serve: loading %s: %w", files[i], r.err)
		}
		name := r.m.Artifact.Name
		if prev, dup := fileFor[name]; dup {
			return nil, nil, fmt.Errorf("serve: %s and %s both carry model name %q", prev, files[i], name)
		}
		fileFor[name] = files[i]
		models[name] = r.m
		names = append(names, name)
	}
	sort.Strings(names)
	return models, names, nil
}

// LoadDir registers every *.json artifact in dir and returns the loaded
// model names. The load is all-or-nothing: the whole directory is decoded
// before any entry becomes visible, so a bad artifact cannot leave the
// registry partially updated.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	models, names, err := loadModels(dir)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	for name, m := range models {
		r.models[name] = m
	}
	r.mu.Unlock()
	return names, nil
}

// ReloadDir atomically replaces the whole model set with the artifacts in
// dir — the hot-rollout path. The directory is fully decoded before the
// swap; on any error the registry keeps serving the previous set
// untouched. Models dropped from the directory disappear from the
// registry, but requests already scoring against them finish normally on
// the model pointers they hold.
func (r *Registry) ReloadDir(dir string) ([]string, error) {
	staged, err := r.PrepareDir(dir)
	if err != nil {
		return nil, err
	}
	return staged.Commit(), nil
}

// Staged is a fully decoded and compiled model set that has not yet been
// made visible — the prepare half of a two-phase rollout. Everything that
// can fail (reading, validating, compiling the directory) happens in
// PrepareDir; Commit is a pointer swap that cannot fail, which is what
// lets a fleet controller prepare every replica first and only then
// commit everywhere (see internal/router's fleet /reload).
type Staged struct {
	reg    *Registry
	models map[string]*Model
	names  []string
}

// PrepareDir decodes every *.json artifact in dir into a staged set
// without touching the serving table. The registry keeps serving its
// current set; the staged set becomes visible only on Commit.
func (r *Registry) PrepareDir(dir string) (*Staged, error) {
	models, names, err := loadModels(dir)
	if err != nil {
		return nil, err
	}
	return &Staged{reg: r, models: models, names: names}, nil
}

// Names lists the staged model names, sorted.
func (s *Staged) Names() []string {
	return append([]string(nil), s.names...)
}

// Commit atomically replaces the registry's whole model set with the
// staged one and returns the model names now serving. It is infallible:
// all decoding already happened in PrepareDir. Requests scoring against
// the previous set finish on the model pointers they hold.
func (s *Staged) Commit() []string {
	s.reg.mu.Lock()
	s.reg.models = s.models
	s.reg.mu.Unlock()
	return s.Names()
}

// Get returns the named model.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[name]
	return m, ok
}

// Models returns the registered models sorted by name — one consistent
// snapshot of the table, so a caller iterating it cannot observe a
// half-applied rollover between lookups.
func (r *Registry) Models() []*Model {
	r.mu.RLock()
	models := make([]*Model, 0, len(r.models))
	for _, m := range r.models {
		models = append(models, m)
	}
	r.mu.RUnlock()
	sort.Slice(models, func(i, j int) bool { return models[i].Artifact.Name < models[j].Artifact.Name })
	return models
}

// Len returns the registered model count.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}
