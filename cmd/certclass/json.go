package main

import (
	"encoding/json"
	"io"

	"github.com/cqa-go/certainty/internal/core"
	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/fo"
	"github.com/cqa-go/certainty/internal/jointree"
	"github.com/cqa-go/certainty/internal/prob"
)

// jsonReport is the machine-readable form of the classification report.
type jsonReport struct {
	Query        string       `json:"query"`
	SelfJoinFree bool         `json:"selfJoinFree"`
	Acyclic      bool         `json:"acyclic"`
	Safe         bool         `json:"safe"`
	Class        string       `json:"class,omitempty"`
	Reason       string       `json:"reason,omitempty"`
	Unsupported  string       `json:"unsupported,omitempty"`
	InP          bool         `json:"inP"`
	Atoms        []jsonAtom   `json:"atoms,omitempty"`
	Attacks      []jsonAttack `json:"attacks,omitempty"`
	Cycles       []jsonCycle  `json:"cycles,omitempty"`
	Rewriting    string       `json:"rewriting,omitempty"`
	SQL          string       `json:"sql,omitempty"`
}

type jsonAtom struct {
	Atom        string   `json:"atom"`
	Key         []string `json:"key"`
	PlusClosure []string `json:"plusClosure"`
	FullClosure []string `json:"fullClosure"`
}

type jsonAttack struct {
	From string `json:"from"`
	To   string `json:"to"`
	Kind string `json:"kind"`
}

type jsonCycle struct {
	Atoms    []string `json:"atoms"`
	Strong   bool     `json:"strong"`
	Terminal bool     `json:"terminal"`
}

func buildJSONReport(q cq.Query) jsonReport {
	rep := jsonReport{
		Query:        q.String(),
		SelfJoinFree: !q.HasSelfJoin(),
		Acyclic:      jointree.IsAcyclic(q),
		Safe:         prob.IsSafe(q),
	}
	cls, err := core.Classify(q)
	if err != nil {
		rep.Unsupported = err.Error()
		return rep
	}
	rep.Class = cls.Class.String()
	rep.Reason = cls.Reason
	rep.InP = cls.Class.InP()
	if g := cls.Graph; g != nil {
		for i, a := range q.Atoms {
			rep.Atoms = append(rep.Atoms, jsonAtom{
				Atom:        a.String(),
				Key:         a.KeyVars().Sorted(),
				PlusClosure: g.Plus(i).Sorted(),
				FullClosure: g.Full(i).Sorted(),
			})
		}
		for i := 0; i < g.Len(); i++ {
			for j := 0; j < g.Len(); j++ {
				if i == j || !g.Attacks(i, j) {
					continue
				}
				kind := "weak"
				if g.IsStrong(i, j) {
					kind = "strong"
				}
				rep.Attacks = append(rep.Attacks, jsonAttack{
					From: q.Atoms[i].Rel, To: q.Atoms[j].Rel, Kind: kind,
				})
			}
		}
		for _, c := range g.Cycles() {
			names := make([]string, len(c))
			for i, v := range c {
				names[i] = q.Atoms[v].Rel
			}
			rep.Cycles = append(rep.Cycles, jsonCycle{
				Atoms:    names,
				Strong:   g.CycleIsStrong(c),
				Terminal: g.CycleIsTerminal(c),
			})
		}
	}
	if cls.Class == core.ClassFO {
		if phi, err := fo.RewriteAcyclic(q); err == nil {
			rep.Rewriting = phi.String()
		} else if phi, err := fo.RewriteSafe(q); err == nil {
			rep.Rewriting = phi.String()
		}
		rep.SQL, _ = emittedSQL(q)
	}
	return rep
}

func emitJSON(w io.Writer, q cq.Query) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildJSONReport(q))
}
