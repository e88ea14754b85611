package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

// goldenModelJSON is the repository's pinned logistic model in the JSON
// format.
func goldenModelJSON(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "model.logistic.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// binaryFromJSON re-frames a JSON model as the container SaveBinary writes
// for classifiers without a flat form: the "SMB1" magic, the meta record
// with the classifier blobs left out, then one section per hypothesis
// holding the JSON tag byte (0x00) and the classifier's JSON envelope. It
// does not validate, so it carries a misshapen JSON model into the binary
// format unchanged.
func binaryFromJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var dto modelDTO
	if err := json.Unmarshal(raw, &dto); err != nil {
		t.Fatal(err)
	}
	var sections [][]byte
	for i := range dto.Hypotheses {
		s := bytes.NewBuffer([]byte{0x00})
		if err := json.Compact(s, dto.Hypotheses[i].Classifier); err != nil {
			t.Fatal(err)
		}
		sections = append(sections, s.Bytes())
		dto.Hypotheses[i].Classifier = nil
	}
	meta, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(binaryMagic), binary.LittleEndian.AppendUint32(nil, uint32(len(meta)))...)
	out = append(out, meta...)
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return out
}

// logisticPayload and linearPayload mirror the persisted classifier and
// count-model payloads, so a test can edit them field by field.
type logisticPayload struct {
	K    int         `json:"k"`
	W    [][]float64 `json:"w"`
	Mean []float64   `json:"mean"`
	Std  []float64   `json:"std"`
}

type linearPayload struct {
	Coeffs []float64 `json:"coeffs"`
	R2     float64   `json:"r2"`
	N      int       `json:"n"`
	Lambda float64   `json:"lambda"`
}

type payloadEnvelope struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// editEnvelope decodes blob's payload into p, applies edit, and re-encodes.
func editEnvelope[P any](t *testing.T, blob *json.RawMessage, edit func(*P)) {
	t.Helper()
	var env payloadEnvelope
	var p P
	if err := json.Unmarshal(*blob, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		t.Fatal(err)
	}
	edit(&p)
	var err error
	if env.Payload, err = json.Marshal(p); err != nil {
		t.Fatal(err)
	}
	if *blob, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
}

// narrow restricts hypothesis 0 to the given features and cuts its logistic
// payload to as many columns, so the classifier and the feature list agree.
func narrow(t *testing.T, dto *modelDTO, features ...string) {
	h := &dto.Hypotheses[0]
	h.Features = features
	editEnvelope(t, &h.Classifier, func(p *logisticPayload) {
		p.Mean, p.Std = p.Mean[:len(features)], p.Std[:len(features)]
		for c := range p.W {
			p.W[c] = p.W[c][:len(features)+1]
		}
	})
}

// TestLoadModelRefusesMisshapenModels: a model whose parts disagree on
// shape used to load and then panic (or silently misread a column) on the
// first Score. LoadModel now refuses each with ErrModelCorrupt, in the
// JSON format and in the binary container alike.
func TestLoadModelRefusesMisshapenModels(t *testing.T) {
	golden := goldenModelJSON(t)
	edits := map[string]func(*testing.T, *modelDTO){
		"count model without coefficients": func(t *testing.T, d *modelDTO) {
			editEnvelope(t, &d.CountModel, func(p *linearPayload) { p.Coeffs = []float64{} })
		},
		"count model one coefficient short": func(t *testing.T, d *modelDTO) {
			editEnvelope(t, &d.CountModel, func(p *linearPayload) { p.Coeffs = p.Coeffs[:len(p.Coeffs)-1] })
		},
		"logistic with one class": func(t *testing.T, d *modelDTO) {
			editEnvelope(t, &d.Hypotheses[0].Classifier, func(p *logisticPayload) { p.K, p.W = 1, p.W[:1] })
		},
		"logistic with three classes and two weight rows": func(t *testing.T, d *modelDTO) {
			editEnvelope(t, &d.Hypotheses[0].Classifier, func(p *logisticPayload) { p.K = 3 })
		},
		"weight row shorter than features+1": func(t *testing.T, d *modelDTO) {
			editEnvelope(t, &d.Hypotheses[0].Classifier, func(p *logisticPayload) { p.W[1] = p.W[1][:len(p.W[1])-1] })
		},
		"classifier narrower than its features": func(t *testing.T, d *modelDTO) {
			editEnvelope(t, &d.Hypotheses[0].Classifier, func(p *logisticPayload) {
				n := len(p.Mean) - 1
				p.Mean, p.Std = p.Mean[:n], p.Std[:n]
				for c := range p.W {
					p.W[c] = p.W[c][:n+1]
				}
			})
		},
		"feature missing from the schema": func(t *testing.T, d *modelDTO) {
			narrow(t, d, metrics.FeatKLoC, "no_such_feature")
		},
		"full feature list out of schema order": func(t *testing.T, d *modelDTO) {
			f := d.Hypotheses[0].Features
			f[0], f[1] = f[1], f[0]
		},
	}
	load := func(t *testing.T, label string, raw []byte) (*Model, error) {
		t.Helper()
		jm, jerr := LoadModel(bytes.NewReader(raw))
		bm, berr := LoadModel(bytes.NewReader(binaryFromJSON(t, raw)))
		if (jerr == nil) != (berr == nil) {
			t.Fatalf("%s: json load err = %v, binary load err = %v", label, jerr, berr)
		}
		if jerr != nil {
			for format, err := range map[string]error{"json": jerr, "binary": berr} {
				if !errors.Is(err, ErrModelCorrupt) {
					t.Errorf("%s %s: err = %v, want ErrModelCorrupt", label, format, err)
				}
			}
			return nil, jerr
		}
		fv := metrics.FeatureVector{}
		if a, b := jm.Score("x", fv), bm.Score("x", fv); a.RiskScore != b.RiskScore {
			t.Fatalf("%s: json and binary loads score %v and %v", label, a.RiskScore, b.RiskScore)
		}
		return jm, nil
	}

	// The unedited model, and one narrowed to two schema features with a
	// classifier cut to match, load and score.
	if _, err := load(t, "golden", golden); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if m, _ := LoadModel(bytes.NewReader(golden)); m.SaveBinary(&bin) != nil || !bytes.Equal(bin.Bytes(), binaryFromJSON(t, golden)) {
		t.Fatal("binaryFromJSON does not reproduce SaveBinary on the golden model")
	}
	var ok modelDTO
	if err := json.Unmarshal(golden, &ok); err != nil {
		t.Fatal(err)
	}
	narrow(t, &ok, metrics.FeatKLoC, metrics.FeatFiles)
	raw, err := json.Marshal(ok)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := load(t, "narrowed", raw); err != nil {
		t.Fatalf("consistent narrowed model refused: %v", err)
	}

	for name, edit := range edits {
		var dto modelDTO
		if err := json.Unmarshal(golden, &dto); err != nil {
			t.Fatal(err)
		}
		edit(t, &dto)
		raw, err := json.Marshal(dto)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := load(t, name, raw); err == nil {
			t.Errorf("%s: loaded (%d hypotheses), want ErrModelCorrupt", name, len(m.Hypotheses))
		}
	}
}

// FuzzLoadModel: LoadModel never panics on arbitrary bytes; every model
// it accepts scores a fixed feature vector without panicking; and
// re-saving an accepted model in its own format and loading that again
// reaches a fixed point.
func FuzzLoadModel(f *testing.F) {
	golden := goldenModelJSON(f)
	m, err := LoadModel(bytes.NewReader(golden))
	if err != nil {
		f.Fatal(err)
	}
	var bin bytes.Buffer
	if err := m.SaveBinary(&bin); err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(bin.Bytes())
	fv := metrics.FeatureVector{}
	for i, name := range metrics.FeatureNames {
		fv[name] = float64(i)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		m.Score("fuzz", fv)
		save := func(m *Model) []byte {
			t.Helper()
			var buf bytes.Buffer
			write := m.Save
			if bytes.HasPrefix(data, []byte(binaryMagic)) {
				write = m.SaveBinary
			}
			if err := write(&buf); err != nil {
				t.Fatalf("accepted model does not re-save: %v", err)
			}
			return buf.Bytes()
		}
		first := save(m)
		again, err := LoadModel(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-saved model does not load: %v", err)
		}
		if second := save(again); !bytes.Equal(first, second) {
			t.Fatalf("save∘load not a fixed point:\n%s\n%s", first, second)
		}
	})
}
