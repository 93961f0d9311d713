package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/server"
	"github.com/cqa-go/certainty/internal/shard"
)

// referencePlan is how the coordinator read and split a batch before it
// kept item text: encoding/json off the capped body, the shape checks, and
// the batch-level defaults copied into every item before grouping. It
// returns the resolved items and the groups, or the error the handler
// wrote.
func referencePlan(c *Coordinator, body []byte) (server.BatchSolveRequest, []server.BatchSolveItem, []batchGroup, *server.ErrorBody) {
	var req server.BatchSolveRequest
	r := httptest.NewRequest("POST", "/v1/solve/batch", bytes.NewReader(body))
	if err := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), r.Body, c.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		return req, nil, nil, &server.ErrorBody{Code: server.CodeMalformed, Message: "body: " + err.Error()}
	}
	if len(req.Items) == 0 {
		return req, nil, nil, &server.ErrorBody{Code: server.CodeMalformed, Message: "batch has no items"}
	}
	if len(req.Items) > c.cfg.MaxBatchItems {
		return req, nil, nil, &server.ErrorBody{
			Code:    server.CodePolicy,
			Message: "batch has " + strconv.Itoa(len(req.Items)) + " items, server maximum is " + strconv.Itoa(c.cfg.MaxBatchItems),
		}
	}
	resolved := make([]server.BatchSolveItem, len(req.Items))
	byKey := make(map[string][]int)
	var keys []string
	for i, it := range req.Items {
		if it.Query == "" {
			it.Query = req.Query
		}
		if it.DB == "" {
			it.DB = req.DB
		}
		resolved[i] = it
		key := ""
		if q, err := cq.ParseQuery(it.Query); err == nil {
			key = shard.PlacementKey(q)
		}
		if _, ok := byKey[key]; !ok {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], i)
	}
	sort.Strings(keys)
	var groups []batchGroup
	for _, k := range keys {
		groups = append(groups, batchGroup{key: k, idxs: byKey[k]})
	}
	return req, resolved, groups, nil
}

// referenceSub is the sub-batch the coordinator sent for the items at
// idxs before it kept item text.
func referenceSub(req server.BatchSolveRequest, resolved []server.BatchSolveItem, idxs []int) server.BatchSolveRequest {
	sub := server.BatchSolveRequest{
		TimeoutMS:      req.TimeoutMS,
		Budget:         req.Budget,
		DegradeSamples: req.DegradeSamples,
		SampleSeed:     req.SampleSeed,
		Shards:         req.Shards,
		IfDBVersion:    req.IfDBVersion,
		Stream:         true,
	}
	for _, i := range idxs {
		sub.Items = append(sub.Items, resolved[i])
	}
	return sub
}

// decodeSub decodes a sub-batch as a worker sees it, then copies the
// batch-level defaults into its items, as the worker resolves them.
func decodeSub(t *testing.T, body []byte) server.BatchSolveRequest {
	t.Helper()
	var sub server.BatchSolveRequest
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("sub-batch %s does not decode: %v", body, err)
	}
	for i := range sub.Items {
		if sub.Items[i].Query == "" {
			sub.Items[i].Query = sub.Query
		}
		if sub.Items[i].DB == "" {
			sub.Items[i].DB = sub.DB
		}
	}
	sub.Query, sub.DB = "", ""
	return sub
}

// FuzzBatchFraming holds the coordinator's batch framing to the code it
// replaced: for any body and body limit, a rejected body gets the same
// error, and an accepted one splits into the same groups and chunks, each
// chunk's sub-batch carrying, once decoded and its batch defaults filled
// in, the same items, limits and fence. A failover hop's sub-batch, the
// chunk less the items already answered, is checked the same way.
func FuzzBatchFraming(f *testing.F) {
	for _, seed := range []string{
		`{"items":[{"query":"R(x | y)","db":"R(a | b)"},{"query":"S(x | y)","db":"S(a | b)\nS(a | c)"},{"db":"R(c | d)"}],"query":"R(x | y), S(y | x)","db":"R(e | f)","timeout_ms":250,"budget":60,"degrade_samples":-1,"sample_seed":-7,"shards":4,"stream":true,"if_db_version":3}`,
		`{"query":"R(x | y)","items":[{"db":"R(a | b)"},{"db":"R(a | c)"},{"db":"R(a | d)"},{"db":"R(a | e)"},{"db":"R(a | f)"}]}`,
		`{"db":"R(a | b)","items":[{"query":"R(x | y)"},{"query":"S(x | y)"},{"query":"R(x | y), S(y | x)"},{"query":"bad("},{}]}`,
		` { "items" : [ { "query" : "R(x | y)" , "db" : "R(a | b)" } ] , "budget" : 5 } `,
		`{"items":[{"query":"R(x | y)","db":"R(a | b)"}],"items":[{"db":"c"}]}`,
		`{"items":[]}`, `{"items":null}`, `{"items":[null]}`, `{"items":[{}]}`, `{}`, `[]`, ``,
		`{"Items":[{"Query":"R(x | y)","DB":"R(a | b)"}],"QUERY":"S(x | y)"}`,
		`{"items":[{"query":"R(x | y)","extra":{"a":[1]}}],"unknown":true}`,
		`{"items":[{"query":"R(x | y)"}],"stream":1}`, `{"items":[{"query":"R(x | y)"}],"shards":1.0}`,
		`{"items":[{"query":"R(x | y)","db":null}],"db":null,"query":null,"if_db_version":null}`,
		`{"items":[{"query":"R(x | y)","db":"R(a | 😀) "}],"db":"\ud800"}`,
		`{"items":[{"query":"<&>","db":"\/\t"}],"query":"R(x | y)"}`,
		"{\"items\":[{\"query\":\"R(x | y)\",\"db\":\"\xff\"}]}",
		`{"items":[{"query":"R(x | y)"}]} trailing`, `{"items":[{"query":"R(x | y)"}]}{"items":[]}`,
		`{"items":[{"query":"R(x | y)"},{"query":"R(x | y)"},{"query":"R(x | y)"},{"query":"R(x | y)"},{"query":"R(x | y)"},{"query":"R(x | y)"},{"query":"R(x | y)"}]}`,
		`{"items":[{"query":"R(x | y)","db":"` + strings.Repeat("R(a | b)\n", 40) + `"}]}`,
	} {
		f.Add([]byte(seed), uint8(0))
		f.Add([]byte(seed), uint8(40))
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint8) {
		c := New(Config{
			Backends:      []string{"http://w1", "http://w2", "http://w3"},
			Registry:      obs.NewRegistry(),
			MaxBodyBytes:  int64(limit), // 0 takes the default
			MaxBatchItems: 6,
			GroupSplit:    2,
		})
		req, resolved, wantGroups, wantErr := referencePlan(c, body)
		fr, gotErr := c.decodeBatch(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/solve/batch", bytes.NewReader(body)))
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Fatalf("body %q: error %v, reference error %v", body, gotErr, wantErr)
		case wantErr != nil:
			if *gotErr != *wantErr {
				t.Fatalf("body %q: error %+v, reference error %+v", body, *gotErr, *wantErr)
			}
			return
		}
		defer fr.Release()
		groups := planGroups(fr)
		if !reflect.DeepEqual(groups, wantGroups) {
			t.Fatalf("body %q: groups %+v, reference %+v", body, groups, wantGroups)
		}
		for _, g := range groups {
			for _, chunk := range c.chunks(g, len(c.backends)) {
				// The first hop sends the chunk; a failover hop sends what is
				// left after the first item was answered, and after every
				// other one was.
				var odd []int
				for k := 1; k < len(chunk); k += 2 {
					odd = append(odd, chunk[k])
				}
				for _, idxs := range [][]int{chunk, chunk[1:], odd} {
					if len(idxs) == 0 {
						continue
					}
					sub := fr.AppendSubBatch(nil, idxs)
					got, want := decodeSub(t, sub), referenceSub(req, resolved, idxs)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("body %q, items %v: sub-batch %s resolves to %+v, reference %+v", body, idxs, sub, got, want)
					}
				}
			}
		}
	})
}
