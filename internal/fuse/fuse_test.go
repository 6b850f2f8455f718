package fuse

import "testing"

func TestRequestSize(t *testing.T) {
	if (Config{}).RequestSize() != DefaultMaxWrite {
		t.Errorf("default request size = %d", (Config{}).RequestSize())
	}
	if (Config{BigWrites: true}).RequestSize() != BigWritesMaxWrite {
		t.Errorf("big_writes request size = %d", (Config{BigWrites: true}).RequestSize())
	}
	if (Config{MaxWrite: 512}).RequestSize() != 512 {
		t.Errorf("explicit MaxWrite ignored")
	}
}

func TestRequestCostMonotone(t *testing.T) {
	if RequestCostNs(0) <= 0 {
		t.Error("zero-byte request should still cost crossings")
	}
	if RequestCostNs(1<<20) <= RequestCostNs(1<<10) {
		t.Error("cost not monotone in payload size")
	}
}
