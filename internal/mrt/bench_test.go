package mrt

import (
	"bytes"
	"io"
	"testing"
)

// benchArchive builds an in-memory archive of BGP4MP message records.
func benchArchive(b *testing.B, records int) []byte {
	b.Helper()
	src := allocTestMessage()
	body, err := src.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	var archive bytes.Buffer
	w := NewWriter(&archive)
	for i := 0; i < records; i++ {
		if err := w.WriteRecord(Record{Timestamp: uint32(i), Type: TypeBGP4MP, Subtype: src.Subtype(), Body: body}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	return archive.Bytes()
}

// BenchmarkReader measures raw record iteration over an in-memory
// archive: the floor every higher decode layer builds on. MB/s is
// archive bytes per wall second.
func BenchmarkReader(b *testing.B) {
	data := benchArchive(b, 2048)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(data))
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
