package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	secmetric "repro"
)

// Snapshot is one immutable generation of the model registry. Every
// request resolves its model from the snapshot current at admission and
// keeps scoring against it even if a reload swaps the registry mid-flight,
// so a hot-reload can never hand a request a torn or half-replaced model.
type Snapshot struct {
	// Models maps registry names to loaded models. The map is never
	// mutated after the snapshot is published.
	Models map[string]*secmetric.Model
	// Default is the name served when a request names no model: the entry
	// literally named "default" when present, otherwise the
	// lexicographically first name.
	Default string
}

// Get resolves a model by name; the empty name selects the default. It
// returns the resolved name so responses can echo which model served them.
func (s *Snapshot) Get(name string) (*secmetric.Model, string, bool) {
	if name == "" {
		name = s.Default
	}
	m, ok := s.Models[name]
	return m, name, ok
}

// Names lists the registered model names, sorted.
func (s *Snapshot) Names() []string {
	out := make([]string, 0, len(s.Models))
	for n := range s.Models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Registry is the daemon's model store: models loaded from a directory
// (every *.json or *.bin file, named by ModelName) and/or explicitly named
// files, published as atomic snapshots. Load is all-or-nothing — one
// unreadable or schema-mismatched model file fails the whole reload and the
// previous snapshot keeps serving — so the registry can never get stuck
// half-new.
type Registry struct {
	dir   string
	files map[string]string // explicit name -> path sources

	writeMu sync.Mutex // serializes Load/Register; readers never block
	snap    atomic.Pointer[Snapshot]
	reloads atomic.Uint64
}

// NewRegistry builds a registry over a model directory (may be empty) and
// explicit name->path sources (may be nil). Call Load to populate it, or
// Register to install in-memory models directly.
func NewRegistry(dir string, files map[string]string) *Registry {
	r := &Registry{dir: dir, files: map[string]string{}}
	for n, p := range files {
		r.files[n] = p
	}
	r.snap.Store(&Snapshot{Models: map[string]*secmetric.Model{}})
	return r
}

// Snapshot returns the current generation. The returned value is immutable;
// hold it for the duration of one request.
func (r *Registry) Snapshot() *Snapshot { return r.snap.Load() }

// Reloads counts successful Load calls.
func (r *Registry) Reloads() uint64 { return r.reloads.Load() }

// Load (re)reads every model source and atomically publishes the new
// snapshot. Models already registered via Register survive the reload
// unless a file source shadows their name. A name claimed by two file
// sources (an explicit file and a directory entry, or m.json and m.bin in
// the directory) is refused, as is a model whose feature schema does not
// match this build (secmetric.ErrFeatureSchema); either fails the whole
// load.
func (r *Registry) Load() (*Snapshot, error) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()

	models := map[string]*secmetric.Model{}
	// In-memory registrations (e.g. a startup-trained default) are not
	// file-backed; carry them forward so a reload cannot drop them.
	for n, m := range r.snap.Load().Models {
		if _, fromFile := r.files[n]; !fromFile {
			models[n] = m
		}
	}
	sources := make(map[string]string, len(r.files))
	for name, path := range r.files {
		sources[name] = path
	}
	if r.dir != "" {
		entries, err := os.ReadDir(r.dir)
		if err != nil {
			return nil, fmt.Errorf("server: model dir: %w", err)
		}
		for _, e := range entries {
			if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
				continue
			}
			// Both model formats register; LoadModel sniffs the encoding.
			name, ok := ModelName(e.Name())
			if !ok {
				continue
			}
			path := filepath.Join(r.dir, e.Name())
			if prev, dup := sources[name]; dup {
				return nil, fmt.Errorf("server: model name %q is claimed by both %s and %s", name, prev, path)
			}
			sources[name] = path
		}
	}
	for name, path := range sources {
		m, err := secmetric.LoadModel(path)
		if err != nil {
			return nil, fmt.Errorf("server: refusing model %q (%s): %w", name, path, err)
		}
		models[name] = m
	}
	if len(models) == 0 {
		return nil, errors.New("server: no models to register (empty model dir and no model files)")
	}
	snap := &Snapshot{Models: models, Default: defaultName(models)}
	r.snap.Store(snap)
	r.reloads.Add(1)
	return snap, nil
}

// ModelName is the registry name of a model file: its basename without the
// .json or .bin extension. ok reports whether the file has one of the two
// model extensions, which a model directory requires; an explicit -model
// path may have any name.
func ModelName(path string) (name string, ok bool) {
	base := filepath.Base(path)
	for _, ext := range []string{".json", ".bin"} {
		if name, ok = strings.CutSuffix(base, ext); ok {
			return name, true
		}
	}
	return base, false
}

// Register installs an in-memory model under name, copy-on-write: a fresh
// snapshot is published, readers of the old one are unaffected.
func (r *Registry) Register(name string, m *secmetric.Model) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	old := r.snap.Load()
	models := make(map[string]*secmetric.Model, len(old.Models)+1)
	for n, om := range old.Models {
		models[n] = om
	}
	models[name] = m
	r.snap.Store(&Snapshot{Models: models, Default: defaultName(models)})
}

func defaultName(models map[string]*secmetric.Model) string {
	if _, ok := models["default"]; ok {
		return "default"
	}
	best := ""
	for n := range models {
		if best == "" || n < best {
			best = n
		}
	}
	return best
}
