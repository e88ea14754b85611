package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/metrics"
	"repro/internal/ml"
)

// Serialized model format, versioned for forward compatibility.
const modelFormatVersion = 1

// binaryMagic opens every binary model file: "SMB" plus one version byte.
// LoadModel sniffs it to pick the decode path, so JSON and binary models
// load through the same entry point.
const binaryMagic = "SMB1"

// maxBinarySection bounds every length prefix in a binary model. Sections
// are read into a buffer that grows with the bytes actually present, so a
// corrupt prefix costs at most the file's own size, never this bound.
const maxBinarySection = 1 << 28

// ErrModelCorrupt marks a model whose binary header or sections are
// truncated or internally inconsistent, or (in either format) whose parts
// disagree on shape: a classifier payload whose dimensions disagree with
// each other, a hypothesis feature missing from the schema, a classifier
// that does not have the two ClassNames classes or whose input width does
// not fit its hypothesis' features, or a count model without one
// coefficient per schema feature plus the intercept. Callers (the daemon's
// registry in particular) check for it with errors.Is and keep serving
// their previous snapshot.
var ErrModelCorrupt = errors.New("core: corrupt or truncated model")

// ErrFeatureSchema marks a model whose persisted feature schema does not
// match this build's metrics.FeatureNames. Scoring with such a model would
// silently misalign columns (the transformer and every classifier index
// rows by FeatureNames position), so loading refuses instead. Retrain the
// model, or load it with the binary revision that wrote it.
var ErrFeatureSchema = errors.New("model feature schema does not match this build")

type hypothesisDTO struct {
	Name       string             `json:"name"`
	Question   string             `json:"question"`
	Kind       ModelKind          `json:"kind"`
	Classifier json.RawMessage    `json:"classifier"`
	Features   []string           `json:"features"`
	Importance []ml.FeatureWeight `json:"importance"`
	BaseRate   float64            `json:"base_rate"`
	CVAccuracy float64            `json:"cv_accuracy"`
	CVAUC      float64            `json:"cv_auc"`
}

type modelDTO struct {
	Version int       `json:"version"`
	Kind    ModelKind `json:"kind"`
	// Schema records the full feature-name column order the model was
	// trained against; LoadModel refuses a model whose schema differs from
	// the running build's metrics.FeatureNames.
	Schema      []string             `json:"schema"`
	Transformer *Transformer         `json:"transformer"`
	Hypotheses  []hypothesisDTO      `json:"hypotheses"`
	CountModel  json.RawMessage      `json:"count_model,omitempty"`
	CountEval   ml.RegressionMetrics `json:"count_eval"`
	CountStd    float64              `json:"count_residual_std"`
}

// toDTO assembles the persisted model record, encoding each hypothesis'
// classifier with marshal. The blobs come back in hypothesis order: Save
// embeds them in the record, SaveBinary writes them as sections after it.
func (m *Model) toDTO(marshal func(ml.Classifier) ([]byte, error)) (modelDTO, [][]byte, error) {
	dto := modelDTO{
		Version:     modelFormatVersion,
		Kind:        m.Config.Kind,
		Schema:      append([]string(nil), metrics.FeatureNames...),
		Transformer: m.Transformer,
		CountEval:   m.CountEval,
		CountStd:    m.CountResidualStd,
	}
	blobs := make([][]byte, 0, len(m.Hypotheses))
	for _, hm := range m.Hypotheses {
		blob, err := marshal(hm.Classifier)
		if err != nil {
			return modelDTO{}, nil, fmt.Errorf("core: saving %s: %w", hm.Hypothesis.Name, err)
		}
		blobs = append(blobs, blob)
		h := hypothesisDTO{
			Name:       hm.Hypothesis.Name,
			Question:   hm.Hypothesis.Question,
			Kind:       hm.Kind,
			Features:   hm.Features,
			Importance: hm.Importance,
			BaseRate:   hm.BaseRate,
		}
		if hm.CV != nil {
			h.CVAccuracy = hm.CV.Accuracy
			h.CVAUC = hm.CV.AUC
		}
		dto.Hypotheses = append(dto.Hypotheses, h)
	}
	if m.CountModel != nil {
		blob, err := ml.MarshalRegressor(m.CountModel)
		if err != nil {
			return modelDTO{}, nil, fmt.Errorf("core: saving count model: %w", err)
		}
		dto.CountModel = blob
	}
	return dto, blobs, nil
}

// Save writes the trained model as JSON.
func (m *Model) Save(w io.Writer) error {
	dto, blobs, err := m.toDTO(ml.MarshalClassifier)
	if err != nil {
		return err
	}
	for i, blob := range blobs {
		dto.Hypotheses[i].Classifier = blob
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(dto)
}

// SaveBinary writes the model in the compact binary container: the "SMB1"
// magic, a length-prefixed JSON meta section (the modelDTO with classifier
// blobs left out), then one length-prefixed ml binary classifier blob per
// hypothesis, in meta order. Tree ensembles dominate model size, so they
// serialize as flat little-endian node arrays instead of recursive JSON;
// everything else (transformer, CV stats, the linear count model) stays
// readable JSON in the meta section. LoadModel sniffs the magic, so both
// formats load through the same call.
func (m *Model) SaveBinary(w io.Writer) error {
	dto, blobs, err := m.toDTO(ml.MarshalClassifierBinary)
	if err != nil {
		return err
	}
	meta, err := json.Marshal(dto)
	if err != nil {
		return fmt.Errorf("core: encode model meta: %w", err)
	}
	buf := make([]byte, 0, len(binaryMagic)+4+len(meta))
	buf = append(buf, binaryMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	buf = append(buf, meta...)
	for _, blob := range blobs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	_, err = w.Write(buf)
	return err
}

// LoadModel restores a model saved with Save or SaveBinary, sniffing the
// binary magic to pick the decode path. The restored model scores and
// compares codebases; it cannot be retrained (no corpus attached).
func LoadModel(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(binaryMagic))
	if err == nil && string(magic) == binaryMagic {
		return loadBinaryModel(br)
	}
	if err == nil && string(magic[:3]) == binaryMagic[:3] {
		return nil, fmt.Errorf("core: unsupported binary model version %q", magic)
	}
	var dto modelDTO
	if err := json.NewDecoder(br).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	return modelFromDTO(dto, nil)
}

// loadBinaryModel decodes the binary container; br is positioned at the
// magic. Truncation and garbage at any layer surface as ErrModelCorrupt so
// callers can distinguish a bad file from a version or schema mismatch.
func loadBinaryModel(br *bufio.Reader) (*Model, error) {
	if _, err := br.Discard(len(binaryMagic)); err != nil {
		return nil, fmt.Errorf("%w: short magic", ErrModelCorrupt)
	}
	meta, err := readSection(br, "meta")
	if err != nil {
		return nil, err
	}
	var dto modelDTO
	if err := json.Unmarshal(meta, &dto); err != nil {
		return nil, fmt.Errorf("%w: meta section: %v", ErrModelCorrupt, err)
	}
	clfs := make([]ml.Classifier, len(dto.Hypotheses))
	for i, h := range dto.Hypotheses {
		blob, err := readSection(br, "classifier")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", h.Name, err)
		}
		clf, err := ml.UnmarshalClassifierBinary(blob)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrModelCorrupt, h.Name, err)
		}
		clfs[i] = clf
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after classifier sections", ErrModelCorrupt)
	}
	return modelFromDTO(dto, clfs)
}

// readSection reads one u32-length-prefixed section of the binary container.
func readSection(br *bufio.Reader, what string) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated %s length", ErrModelCorrupt, what)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxBinarySection {
		return nil, fmt.Errorf("%w: implausible %s length %d", ErrModelCorrupt, what, n)
	}
	var buf bytes.Buffer
	buf.Grow(int(min(n, 1<<20)))
	if got, _ := buf.ReadFrom(io.LimitReader(br, int64(n))); got != int64(n) {
		return nil, fmt.Errorf("%w: truncated %s section", ErrModelCorrupt, what)
	}
	return buf.Bytes(), nil
}

// modelFromDTO validates the decoded header and assembles the Model. clfs
// supplies the per-hypothesis classifiers for the binary container; the JSON
// path passes nil and each hypothesisDTO carries its own envelope blob.
func modelFromDTO(dto modelDTO, clfs []ml.Classifier) (*Model, error) {
	if dto.Version != modelFormatVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", dto.Version)
	}
	if err := validateSchema(dto.Schema); err != nil {
		return nil, err
	}
	if dto.Transformer == nil {
		return nil, fmt.Errorf("core: model missing transformer")
	}
	m := &Model{
		Config:           TrainConfig{Kind: dto.Kind},
		Transformer:      dto.Transformer,
		CountEval:        dto.CountEval,
		CountResidualStd: dto.CountStd,
	}
	for i, h := range dto.Hypotheses {
		var clf ml.Classifier
		if clfs != nil {
			clf = clfs[i]
		} else {
			var err error
			clf, err = ml.UnmarshalClassifier(h.Classifier)
			if errors.Is(err, ml.ErrBinaryCorrupt) {
				return nil, fmt.Errorf("%w: %s: %v", ErrModelCorrupt, h.Name, err)
			}
			if err != nil {
				return nil, fmt.Errorf("core: loading %s: %w", h.Name, err)
			}
		}
		if err := checkHypothesis(h, clf); err != nil {
			return nil, err
		}
		m.Hypotheses = append(m.Hypotheses, &HypothesisModel{
			Hypothesis: Hypothesis{Name: h.Name, Question: h.Question},
			Kind:       h.Kind,
			Classifier: clf,
			Features:   h.Features,
			Importance: h.Importance,
			BaseRate:   h.BaseRate,
			CV:         &ml.CVResult{Accuracy: h.CVAccuracy, AUC: h.CVAUC},
		})
	}
	if len(dto.CountModel) > 0 {
		reg, err := ml.UnmarshalRegressor(dto.CountModel)
		if err != nil {
			return nil, fmt.Errorf("core: loading count model: %w", err)
		}
		if n := len(reg.Coeffs()); n != len(metrics.FeatureNames)+1 {
			return nil, fmt.Errorf("%w: count model has %d coefficients, want %d (intercept plus one per schema feature)",
				ErrModelCorrupt, n, len(metrics.FeatureNames)+1)
		}
		m.CountModel = reg
	}
	return m, nil
}

// checkHypothesis refuses a hypothesis that Score could not run as
// written. projectRow reads column 0 for a feature the schema lacks and
// passes a full-width row through unprojected, so every feature must be a
// schema name, and a full-width list must be the schema itself. The
// classifier must score into the two ClassNames classes (Score reads the
// probability of class 1) and fit the feature count (ml.CheckShape).
func checkHypothesis(h hypothesisDTO, clf ml.Classifier) error {
	if len(h.Features) == len(metrics.FeatureNames) {
		if !slices.Equal(h.Features, metrics.FeatureNames) {
			return fmt.Errorf("%w: %s lists every feature, but not in schema order", ErrModelCorrupt, h.Name)
		}
	} else {
		for _, f := range h.Features {
			if !slices.Contains(metrics.FeatureNames, f) {
				return fmt.Errorf("%w: %s uses feature %q, which the schema lacks", ErrModelCorrupt, h.Name, f)
			}
		}
	}
	if err := ml.CheckShape(clf, len(ClassNames), len(h.Features)); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrModelCorrupt, h.Name, err)
	}
	return nil
}

// validateSchema compares a persisted feature schema against the running
// build's metrics.FeatureNames. A model saved before the schema field
// existed (pre-enrich-v2 era) carries no schema; that is indistinguishable
// from a stale column order, so it is refused the same way.
func validateSchema(schema []string) error {
	if len(schema) == 0 {
		return fmt.Errorf("core: model records no feature schema (saved by an older build): %w", ErrFeatureSchema)
	}
	if slices.Equal(schema, metrics.FeatureNames) {
		return nil
	}
	if len(schema) != len(metrics.FeatureNames) {
		return fmt.Errorf("core: model has %d features, this build has %d: %w",
			len(schema), len(metrics.FeatureNames), ErrFeatureSchema)
	}
	for i, name := range schema {
		if name != metrics.FeatureNames[i] {
			return fmt.Errorf("core: feature column %d is %q in the model but %q in this build: %w",
				i, name, metrics.FeatureNames[i], ErrFeatureSchema)
		}
	}
	return nil
}
