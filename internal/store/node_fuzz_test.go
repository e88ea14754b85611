package store

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeNode feeds decodeNode arbitrary page bytes. The harness copies
// them into a zeroed page and re-seals its CRC, so every input gets past
// the checksum to the structural checks behind it. decodeNode must never
// panic and must refuse with ErrCorrupt. A node it accepts must fit a page
// and survive encode then decode unchanged.
func FuzzDecodeNode(f *testing.F) {
	seeds := []*node{
		{leaf: true},
		{
			leaf: true,
			keys: [][]byte{nil, []byte("ra\x00\x00\x00\x00\x00\x00\x00\x01"), []byte("zz")},
			vals: [][]byte{nil, []byte(`{"repo":"a"}`), nil},
			ovf:  []uint64{0, 0, 9},
			vlen: []uint32{0, 12, 5000},
		},
		{
			keys:     [][]byte{nil, []byte("m"), []byte("t\x80")},
			children: []uint64{3, 4, 1 << 40},
		},
	}
	for _, n := range seeds {
		// Trailing zeros are implicit: the harness pads to a page.
		f.Add(bytes.TrimRight(n.encode(), "\x00"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := make([]byte, pageSize)
		copy(p, data)
		sealPage(p)
		if err := checkPage(p, 7); err != nil {
			t.Fatalf("resealed page fails its check: %v", err)
		}
		n, err := decodeNode(p, 7)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal is not ErrCorrupt: %v", err)
			}
			return
		}
		if n.size() > pageSize {
			t.Fatalf("accepted node encodes to %d bytes, more than a page", n.size())
		}
		again, err := decodeNode(n.encode(), 7)
		if err != nil {
			t.Fatalf("re-encoded node does not decode: %v", err)
		}
		if !reflect.DeepEqual(n, again) {
			t.Fatalf("encode then decode changed the node:\n%+v\n%+v", n, again)
		}
	})
}

// TestDecodeNodeSizesSlicesOnce pins that decoding allocates the node and
// its cell slices once each, and nothing per cell: no slice regrows while
// the cells are read, and keys and inline values point into the page.
func TestDecodeNodeSizesSlicesOnce(t *testing.T) {
	leaf := &node{leaf: true}
	branch := &node{}
	for i := 0; i < 60; i++ {
		k := []byte{byte('a' + i/26), byte('a' + i%26)}
		leaf.keys = append(leaf.keys, k)
		leaf.vals = append(leaf.vals, []byte("v"))
		leaf.vlen = append(leaf.vlen, 1)
		leaf.ovf = append(leaf.ovf, 0)
		branch.keys = append(branch.keys, k)
		branch.children = append(branch.children, uint64(i+3))
	}
	for _, tc := range []struct {
		name string
		n    *node
		want float64
	}{
		{"leaf", leaf, 1 + 4},
		{"branch", branch, 1 + 2},
	} {
		p := tc.n.encode()
		got := testing.AllocsPerRun(20, func() {
			if _, err := decodeNode(p, 7); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("%s: decodeNode allocates %v times, want %v", tc.name, got, tc.want)
		}
	}
}
