package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/serve"
)

func TestParseCluster(t *testing.T) {
	for _, tc := range []struct {
		name, list, self string
		want             []serve.Peer
		err              string // substring of the expected error; "" = success
	}{
		{name: "empty"},
		{
			name: "coordinator",
			list: "w1=http://a:1,w2=http://b:2",
			want: []serve.Peer{{Name: "w1", URL: "http://a:1"}, {Name: "w2", URL: "http://b:2"}},
		},
		{
			name: "worker",
			list: "w1=http://a:1,w2=http://b:2,w3=http://c:3", self: "w2",
			want: []serve.Peer{{Name: "w1", URL: "http://a:1"}, {Name: "w3", URL: "http://c:3"}},
		},
		{
			name: "http default and trailing slash",
			list: " w1 = a:1/ ,w2=https://b:2//,w3=c:3", self: "w3",
			want: []serve.Peer{{Name: "w1", URL: "http://a:1"}, {Name: "w2", URL: "https://b:2"}},
		},
		{name: "missing =", list: "w1=a:1,b:2", err: "bad -cluster entry"},
		{name: "empty name", list: "=a:1", err: "bad -cluster entry"},
		{name: "empty url", list: "w1=", err: "bad -cluster entry"},
		{name: "empty entry", list: "w1=a:1,,w2=b:2", err: "bad -cluster entry"},
		{name: "duplicate name", list: "w1=a:1,w1=b:2", err: `duplicate name "w1"`},
		{name: "duplicate url", list: "w1=a:1,w2=http://a:1/", err: `duplicate url "http://a:1"`},
		{name: "self not listed", list: "w1=a:1,w2=b:2", self: "w3", err: `-self "w3" is not in -cluster`},
		{name: "self without cluster", self: "w1", err: "-self requires -cluster"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseCluster(tc.list, tc.self)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("parseCluster(%q, %q) error %v, want one containing %q", tc.list, tc.self, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseCluster(%q, %q): %v", tc.list, tc.self, err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("parseCluster(%q, %q) = %+v, want %+v", tc.list, tc.self, got, tc.want)
			}
		})
	}
}

// TestParseClusterOneRing parses one -cluster string as the coordinator and
// as each worker: the coordinator's placement ring (every peer) and each
// worker's replica ring (self plus its peers) must hash the same names.
func TestParseClusterOneRing(t *testing.T) {
	const list = "w1=localhost:18101,w2=localhost:18102,w3=localhost:18103"
	ringNames := func(self string) []string {
		t.Helper()
		peers, err := parseCluster(list, self)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		if self != "" {
			names = append(names, self)
		}
		for _, p := range peers {
			names = append(names, p.Name)
		}
		slices.Sort(names)
		return names
	}
	want := ringNames("")
	if len(want) != 3 {
		t.Fatalf("coordinator ring %v, want three members", want)
	}
	for _, self := range want {
		if got := ringNames(self); !slices.Equal(got, want) {
			t.Errorf("worker %s ring %v, coordinator ring %v", self, got, want)
		}
	}
}
