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
