package ml

import (
	"encoding/json"
	"fmt"
	"math"
)

// Classifier persistence: models serialize to a tagged JSON envelope so a
// trained model survives across processes (the paper's "the prediction
// model is trained offline").

type envelope struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// nodeDTO is the serializable form of a decision-tree node.
type nodeDTO struct {
	Leaf      bool      `json:"leaf"`
	Probs     []float64 `json:"probs,omitempty"`
	Attr      int       `json:"attr,omitempty"`
	Threshold float64   `json:"threshold,omitempty"`
	Left      *nodeDTO  `json:"left,omitempty"`
	Right     *nodeDTO  `json:"right,omitempty"`
}

// dto renders the subtree at node i.
func (ff *flatForest) dto(i int32) *nodeDTO {
	n := ff.nodes[i]
	if n.attr == flatLeaf {
		off := int(n.right)
		return &nodeDTO{Leaf: true, Probs: ff.probs[off : off+ff.k]}
	}
	return &nodeDTO{Attr: int(n.attr), Threshold: n.thr, Left: ff.dto(i + 1), Right: ff.dto(n.right)}
}

// treeDTOs renders every tree in the arena.
func (ff *flatForest) treeDTOs() []treeDTO {
	trees := make([]treeDTO, len(ff.roots))
	for i, root := range ff.roots {
		trees[i] = treeDTO{K: ff.k, Root: ff.dto(root)}
	}
	return trees
}

// forestFromDTOs builds the arena of decoded tree payloads (a tree, a
// forest's trees, or AdaBoost's stumps) and holds it to the binary codec's
// structural checks, so a JSON model that loads can no more panic at
// prediction than a binary one.
func forestFromDTOs(k int, dtos []treeDTO) (*flatForest, error) {
	ff := &flatForest{k: k}
	for i, td := range dtos {
		if td.K != k {
			return nil, fmt.Errorf("%w: tree %d has %d classes, want %d", ErrBinaryCorrupt, i, td.K, k)
		}
		ff.roots = append(ff.roots, int32(len(ff.nodes)))
		if err := ff.appendDTO(td.Root); err != nil {
			return nil, fmt.Errorf("tree %d: %w", i, err)
		}
	}
	if err := ff.validate(); err != nil {
		return nil, err
	}
	return ff, nil
}

// appendDTO appends a decoded subtree in preorder. It refuses what the
// arena cannot represent: a missing node, a leaf without exactly k class
// probabilities, and a split attribute outside int32.
func (ff *flatForest) appendDTO(d *nodeDTO) error {
	switch {
	case d == nil:
		return fmt.Errorf("%w: missing node", ErrBinaryCorrupt)
	case d.Leaf:
		if len(d.Probs) != ff.k {
			return fmt.Errorf("%w: leaf has %d probabilities, want %d", ErrBinaryCorrupt, len(d.Probs), ff.k)
		}
		ff.addLeaf(d.Probs)
		return nil
	case d.Attr < 0 || d.Attr > math.MaxInt32:
		return fmt.Errorf("%w: bad split attribute %d", ErrBinaryCorrupt, d.Attr)
	}
	id := len(ff.nodes)
	ff.nodes = append(ff.nodes, flatNode{attr: int32(d.Attr), thr: d.Threshold})
	if err := ff.appendDTO(d.Left); err != nil {
		return err
	}
	ff.nodes[id].right = int32(len(ff.nodes))
	return ff.appendDTO(d.Right)
}

type zeroRDTO struct {
	Majority int   `json:"majority"`
	K        int   `json:"k"`
	Counts   []int `json:"counts"`
}

type nbDTO struct {
	K      int         `json:"k"`
	Priors []float64   `json:"priors"`
	Mean   [][]float64 `json:"mean"`
	Var    [][]float64 `json:"var"`
}

type logisticDTO struct {
	K    int         `json:"k"`
	W    [][]float64 `json:"w"`
	Mean []float64   `json:"mean"`
	Std  []float64   `json:"std"`
}

type treeDTO struct {
	K    int      `json:"k"`
	Root *nodeDTO `json:"root"`
}

type forestDTO struct {
	K     int       `json:"k"`
	Trees []treeDTO `json:"trees"`
}

type boostDTO struct {
	K      int       `json:"k"`
	Alphas []float64 `json:"alphas"`
	Stumps []treeDTO `json:"stumps"`
}

type knnDTO struct {
	K       int         `json:"k"`
	Mean    []float64   `json:"mean"`
	Std     []float64   `json:"std"`
	Attrs   []string    `json:"attrs"`
	Classes []string    `json:"classes"`
	X       [][]float64 `json:"x"`
	Y       []float64   `json:"y"`
}

// MarshalClassifier serializes a trained classifier.
func MarshalClassifier(c Classifier) ([]byte, error) {
	var kind string
	var payload any
	switch m := c.(type) {
	case *ZeroR:
		kind = "zeror"
		payload = zeroRDTO{Majority: m.Majority, K: m.K, Counts: m.counts}
	case *GaussianNB:
		kind = "naivebayes"
		payload = nbDTO{K: m.K, Priors: m.Priors, Mean: m.Mean, Var: m.Var}
	case *Logistic:
		kind = "logistic"
		if m.scaler == nil {
			return nil, fmt.Errorf("ml: marshal of unfitted Logistic")
		}
		payload = logisticDTO{K: m.K, W: m.W, Mean: m.scaler.Mean, Std: m.scaler.Std}
	case *DecisionTree:
		kind = "tree"
		if m.flat == nil {
			return nil, fmt.Errorf("ml: marshal of unfitted DecisionTree")
		}
		payload = treeDTO{K: m.k, Root: m.flat.dto(0)}
	case *RandomForest:
		kind = "forest"
		if m.flat == nil {
			return nil, fmt.Errorf("ml: marshal of unfitted RandomForest")
		}
		payload = forestDTO{K: m.k, Trees: m.flat.treeDTOs()}
	case *AdaBoost:
		kind = "boost"
		if len(m.alphas) == 0 {
			return nil, fmt.Errorf("ml: marshal of unfitted AdaBoost")
		}
		payload = boostDTO{K: m.k, Alphas: m.alphas, Stumps: m.flat.treeDTOs()}
	case *KNN:
		kind = "knn"
		if m.data == nil {
			return nil, fmt.Errorf("ml: marshal of unfitted KNN")
		}
		payload = knnDTO{
			K: m.k, Mean: m.scaler.Mean, Std: m.scaler.Std,
			Attrs: m.data.AttrNames, Classes: m.data.ClassNames,
			X: m.data.X, Y: m.data.Y,
		}
	default:
		return nil, fmt.Errorf("ml: cannot marshal classifier %T", c)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Kind: kind, Payload: raw})
}

// UnmarshalClassifier restores a classifier serialized by MarshalClassifier.
func UnmarshalClassifier(data []byte) (Classifier, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("ml: unmarshal envelope: %w", err)
	}
	switch env.Kind {
	case "zeror":
		var d zeroRDTO
		if err := json.Unmarshal(env.Payload, &d); err != nil {
			return nil, err
		}
		if d.K < 1 || len(d.Counts) != d.K || d.Majority < 0 || d.Majority >= d.K {
			return nil, fmt.Errorf("%w: zeror with %d classes, %d counts, majority %d", ErrBinaryCorrupt, d.K, len(d.Counts), d.Majority)
		}
		return &ZeroR{Majority: d.Majority, K: d.K, counts: d.Counts}, nil
	case "naivebayes":
		var d nbDTO
		if err := json.Unmarshal(env.Payload, &d); err != nil {
			return nil, err
		}
		if d.K < 1 || len(d.Priors) != d.K || len(d.Mean) != d.K || len(d.Var) != d.K {
			return nil, fmt.Errorf("%w: naive Bayes with %d classes has %d priors, %d means, %d variances",
				ErrBinaryCorrupt, d.K, len(d.Priors), len(d.Mean), len(d.Var))
		}
		for c := range d.Mean {
			if len(d.Mean[c]) != len(d.Mean[0]) || len(d.Var[c]) != len(d.Mean[0]) {
				return nil, fmt.Errorf("%w: naive Bayes class %d has %d means and %d variances, want %d",
					ErrBinaryCorrupt, c, len(d.Mean[c]), len(d.Var[c]), len(d.Mean[0]))
			}
		}
		return &GaussianNB{K: d.K, Priors: d.Priors, Mean: d.Mean, Var: d.Var}, nil
	case "logistic":
		var d logisticDTO
		if err := json.Unmarshal(env.Payload, &d); err != nil {
			return nil, err
		}
		if d.K < 1 || len(d.W) != d.K || len(d.Std) != len(d.Mean) {
			return nil, fmt.Errorf("%w: logistic with %d classes has %d weight rows, %d means, %d deviations",
				ErrBinaryCorrupt, d.K, len(d.W), len(d.Mean), len(d.Std))
		}
		for c, w := range d.W {
			if len(w) != len(d.Mean)+1 {
				return nil, fmt.Errorf("%w: logistic weight row %d has %d entries, want %d", ErrBinaryCorrupt, c, len(w), len(d.Mean)+1)
			}
		}
		return &Logistic{K: d.K, W: d.W, scaler: &Standardizer{Mean: d.Mean, Std: d.Std}}, nil
	case "tree":
		var d treeDTO
		if err := json.Unmarshal(env.Payload, &d); err != nil {
			return nil, err
		}
		ff, err := forestFromDTOs(d.K, []treeDTO{d})
		if err != nil {
			return nil, err
		}
		return &DecisionTree{k: d.K, flat: ff}, nil
	case "forest":
		var d forestDTO
		if err := json.Unmarshal(env.Payload, &d); err != nil {
			return nil, err
		}
		ff, err := forestFromDTOs(d.K, d.Trees)
		if err != nil {
			return nil, err
		}
		return &RandomForest{k: d.K, Trees: len(d.Trees), flat: ff}, nil
	case "boost":
		var d boostDTO
		if err := json.Unmarshal(env.Payload, &d); err != nil {
			return nil, err
		}
		if len(d.Alphas) != len(d.Stumps) {
			return nil, fmt.Errorf("%w: %d alphas for %d stumps", ErrBinaryCorrupt, len(d.Alphas), len(d.Stumps))
		}
		ff, err := forestFromDTOs(d.K, d.Stumps)
		if err != nil {
			return nil, err
		}
		return &AdaBoost{k: d.K, Rounds: len(d.Stumps), alphas: d.Alphas, flat: ff}, nil
	case "knn":
		var d knnDTO
		if err := json.Unmarshal(env.Payload, &d); err != nil {
			return nil, err
		}
		if d.K < 1 || len(d.Classes) == 0 || len(d.X) == 0 || len(d.Mean) != len(d.Attrs) || len(d.Std) != len(d.Attrs) {
			return nil, fmt.Errorf("%w: kNN with k %d, %d classes, %d rows, %d attributes, %d means, %d deviations",
				ErrBinaryCorrupt, d.K, len(d.Classes), len(d.X), len(d.Attrs), len(d.Mean), len(d.Std))
		}
		ds, err := NewDataset(d.Attrs, d.Classes, d.X, d.Y)
		if err != nil {
			return nil, fmt.Errorf("%w: kNN: %v", ErrBinaryCorrupt, err)
		}
		return &KNN{K: d.K, k: d.K, data: ds, scaler: &Standardizer{Mean: d.Mean, Std: d.Std}}, nil
	default:
		return nil, fmt.Errorf("ml: unknown classifier kind %q", env.Kind)
	}
}

// CheckShape reports whether a decoded classifier can score rows of width
// feature columns into classes classes without reading past its
// parameters or ignoring a column. Its class count must equal classes.
// Naive Bayes, logistic and kNN must have been fitted on exactly width
// columns; a tree model may split only on columns below width
// (SplitWidth); ZeroR reads no columns.
func CheckShape(c Classifier, classes, width int) error {
	k, w := 0, -1 // w < 0: the classifier fixes no input width
	switch m := c.(type) {
	case *ZeroR:
		k = m.K
	case *GaussianNB:
		k, w = m.K, len(m.Mean[0])
	case *Logistic:
		k, w = m.K, len(m.scaler.Mean)
	case *KNN:
		k, w = m.data.NumClasses(), m.data.P()
	case *DecisionTree:
		k = m.k
	case *RandomForest:
		k = m.k
	case *AdaBoost:
		k = m.k
	default:
		return fmt.Errorf("ml: no shape check for classifier %T", c)
	}
	if k != classes {
		return fmt.Errorf("%d classes, want %d", k, classes)
	}
	if w >= 0 && w != width {
		return fmt.Errorf("fitted on %d feature columns but has %d features", w, width)
	}
	if sw := SplitWidth(c); sw > width {
		return fmt.Errorf("splits on feature column %d but has %d features", sw-1, width)
	}
	return nil
}

// Regressor persistence: the count model is the only regressor a trained
// model carries.

type linearDTO struct {
	Coeffs []float64 `json:"coeffs"`
	R2     float64   `json:"r2"`
	N      int       `json:"n"`
	Lambda float64   `json:"lambda"`
}

// MarshalRegressor serializes a fitted LinearRegressor.
func MarshalRegressor(lr *LinearRegressor) ([]byte, error) {
	if len(lr.fit.Coeffs) == 0 {
		return nil, fmt.Errorf("ml: marshal of unfitted LinearRegressor")
	}
	raw, err := json.Marshal(linearDTO{Coeffs: lr.fit.Coeffs, R2: lr.fit.R2, N: lr.fit.N, Lambda: lr.Lambda})
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Kind: "linear", Payload: raw})
}

// UnmarshalRegressor restores a regressor serialized by MarshalRegressor.
func UnmarshalRegressor(data []byte) (*LinearRegressor, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("ml: unmarshal envelope: %w", err)
	}
	if env.Kind != "linear" {
		return nil, fmt.Errorf("ml: unknown regressor kind %q", env.Kind)
	}
	var d linearDTO
	if err := json.Unmarshal(env.Payload, &d); err != nil {
		return nil, err
	}
	lr := &LinearRegressor{Lambda: d.Lambda}
	lr.fit.Coeffs = d.Coeffs
	lr.fit.R2 = d.R2
	lr.fit.N = d.N
	return lr, nil
}
