package model

import (
	"testing"

	"github.com/shus-lab/hios/internal/gpu"
)

func BenchmarkBuildInceptionV3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Must(InceptionV3(gpu.A40(), gpu.NVLinkBridge(), 299))
	}
}

func BenchmarkBuildNASNet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Must(NASNet(gpu.A40(), gpu.NVLinkBridge(), 331))
	}
}
