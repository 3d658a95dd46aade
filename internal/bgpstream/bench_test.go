package bgpstream

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/parallel"
)

// BenchmarkStreamDecode measures end-to-end ingest throughput — MRT
// record iteration, BGP parse, element emission, path interning — over
// in-memory sources at each worker count. MB/s is archive bytes per
// wall second; elems/s is emitted elements per wall second. The
// workers=N subs are the decode fan-out's scaling curve (on a 1-CPU
// host they pin merge overhead instead: workers=8 must not regress
// materially below workers=1).
func BenchmarkStreamDecode(b *testing.B) {
	base := buildArchive(b)
	var archive []byte
	for len(archive) < 1<<19 {
		archive = append(archive, base...)
	}
	const nSources = 4
	sources := make([]Source, nSources)
	for i := range sources {
		sources[i] = BytesSource(fmt.Sprintf("c%d", i), archive, bgp.Options{})
	}
	// Measure the real parallel path at every worker count, even on a
	// single-core host where the effective-CPU gate would fall back to
	// sequential decode.
	parallel.ForceParallel(true)
	defer parallel.ForceParallel(false)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(archive) * nSources))
			b.ReportAllocs()
			var elems int
			for i := 0; i < b.N; i++ {
				s := NewStream(nil, sources...)
				s.SetWorkers(workers)
				s.SetIntern(aspath.NewTable())
				elems = 0
				for {
					batch, err := s.NextBatch()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					elems += len(batch)
				}
			}
			if elems == 0 {
				b.Fatal("no elements decoded")
			}
			b.ReportMetric(float64(elems)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
		})
	}
}
