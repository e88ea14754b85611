package ml

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteARFF exports a dataset in Weka's ARFF format — the paper names Weka
// as the intended data-mining tool ("A data mining tool, such as Weka, can
// then train the weights"), so the testbed's output is loadable there
// directly.
func WriteARFF(w io.Writer, relation string, d *Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "@RELATION %s\n\n", sanitizeARFF(relation))
	for _, name := range d.AttrNames {
		fmt.Fprintf(bw, "@ATTRIBUTE %s NUMERIC\n", sanitizeARFF(name))
	}
	if d.IsClassification() {
		names := make([]string, len(d.ClassNames))
		for i, c := range d.ClassNames {
			names[i] = sanitizeARFF(c)
		}
		fmt.Fprintf(bw, "@ATTRIBUTE class {%s}\n", strings.Join(names, ","))
	} else {
		fmt.Fprintf(bw, "@ATTRIBUTE target NUMERIC\n")
	}
	fmt.Fprintf(bw, "\n@DATA\n")
	for i, row := range d.X {
		for _, v := range row {
			fmt.Fprintf(bw, "%g,", v)
		}
		if d.IsClassification() {
			fmt.Fprintf(bw, "%s\n", sanitizeARFF(d.ClassNames[int(d.Y[i])]))
		} else {
			fmt.Fprintf(bw, "%g\n", d.Y[i])
		}
	}
	return bw.Flush()
}

// sanitizeARFF makes a token safe for unquoted ARFF positions.
func sanitizeARFF(s string) string {
	if s == "" {
		return "_"
	}
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}
