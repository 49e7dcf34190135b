package main

import (
	"strings"
	"testing"
)

func TestSplitPointsRequiredWithSeveralShards(t *testing.T) {
	if _, err := splitPoints(2, ""); err == nil || !strings.Contains(err.Error(), "-split") {
		t.Fatalf("two shards without split points: err %v, want a usage error naming -split", err)
	}
	if _, err := splitPoints(3, " , "); err == nil {
		t.Fatal("a -split value of only separators was accepted for three shards")
	}
	if sp, err := splitPoints(1, ""); err != nil || len(sp) != 0 {
		t.Fatalf("one shard without split points: %v, %v; want no split points and no error", sp, err)
	}
	sp, err := splitPoints(2, "doc500, doc900")
	if err != nil || len(sp) != 2 || sp[0] != "doc500" || sp[1] != "doc900" {
		t.Fatalf("splitPoints(2, %q) = %v, %v", "doc500, doc900", sp, err)
	}
}
