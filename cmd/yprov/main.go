// Command yprov is the CLI for the yProv service (the paper's third
// service component alongside the web front-end and graph back-end).
//
// Usage:
//
//	yprov [-server URL] [-token SECRET] <command> [args]
//
// Commands:
//
//	list                             list stored documents
//	upload <id> <prov.json>          upload a document
//	get <id>                         print a document
//	delete <id>                      delete a document
//	lineage <id> <node> [direction]  ancestors (default) or descendants
//	subgraph <id> <node> <hops>      extract a neighborhood document
//	search <prov:type>               find elements by type
//	stats                            store statistics
//	plan <prov.json>                 print the reproduction plan of a local document
//	rerun <prov.json>                re-execute a scaling-study run from its document
//	upgrade <data-dir>               convert a data directory an earlier build wrote
//
// upgrade works on the directory, not through -server, and fails while
// a server has it open. The server refuses a directory in an older
// on-disk format and names this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/prov"
	"repro/internal/provclient"
	"repro/internal/provgraph"
	"repro/internal/provstore"
	"repro/internal/reproduce"
)

func main() {
	server := flag.String("server", "http://localhost:3000", "yprov service base URL")
	token := flag.String("token", "", "bearer token")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fail("missing command; see -h")
	}
	c := provclient.New(*server)
	c.Token = *token

	var err error
	switch args[0] {
	case "list":
		var ids []string
		ids, err = c.List()
		for _, id := range ids {
			fmt.Println(id)
		}
	case "upload":
		if len(args) != 3 {
			fail("usage: upload <id> <prov.json>")
		}
		var raw []byte
		raw, err = os.ReadFile(args[2])
		if err == nil {
			err = c.UploadRaw(args[1], raw)
		}
	case "get":
		if len(args) != 2 {
			fail("usage: get <id>")
		}
		var doc *prov.Document
		doc, err = c.Get(args[1])
		if err == nil {
			var payload []byte
			payload, err = doc.MarshalIndent()
			if err == nil {
				fmt.Println(string(payload))
			}
		}
	case "delete":
		if len(args) != 2 {
			fail("usage: delete <id>")
		}
		err = c.Delete(args[1])
	case "lineage":
		if len(args) < 3 || len(args) > 4 {
			fail("usage: lineage <id> <node> [ancestors|descendants]")
		}
		dir := provstore.Ancestors
		if len(args) == 4 {
			dir = provstore.LineageDirection(args[3])
		}
		var nodes []prov.QName
		nodes, err = c.Lineage(args[1], prov.QName(args[2]), dir, 0)
		for _, n := range nodes {
			fmt.Println(n)
		}
	case "subgraph":
		if len(args) != 4 {
			fail("usage: subgraph <id> <node> <hops>")
		}
		hops, serr := strconv.Atoi(args[3])
		if serr != nil {
			fail("bad hops %q", args[3])
		}
		var doc *prov.Document
		doc, err = c.Subgraph(args[1], prov.QName(args[2]), hops)
		if err == nil {
			fmt.Println(provgraph.Summary(doc))
			fmt.Print(provgraph.ASCII(doc, prov.QName(args[2]), 0))
		}
	case "search":
		if len(args) != 2 {
			fail("usage: search <prov:type>")
		}
		var hits []provstore.SearchResult
		hits, err = c.SearchByType(args[1])
		for _, h := range hits {
			fmt.Printf("%s\t%s\t%s\n", h.Doc, h.Class, h.Node)
		}
	case "stats":
		var st provstore.Stats
		st, err = c.Stats()
		if err == nil {
			fmt.Printf("documents=%d nodes=%d rels=%d\n", st.Documents, st.Nodes, st.Rels)
		}
	case "plan", "rerun":
		if len(args) != 2 {
			fail("usage: %s <prov.json>", args[0])
		}
		var raw []byte
		raw, err = os.ReadFile(args[1])
		if err != nil {
			break
		}
		var doc *prov.Document
		doc, err = prov.ParseJSON(raw)
		if err != nil {
			break
		}
		var plan *reproduce.Plan
		plan, err = reproduce.Extract(doc)
		if err != nil {
			break
		}
		fmt.Print(reproduce.Describe(plan))
		if args[0] == "rerun" {
			var rep reproduce.Report
			rep, err = reproduce.Rerun(plan)
			if err != nil {
				break
			}
			fmt.Printf("re-executed in %v (simulated): recorded loss %.6g, reproduced %.6g (rel err %.3g) -> match=%v\n",
				rep.Elapsed, rep.RecordedLoss, rep.ReproducedLoss, rep.RelError, rep.Match)
		}
	case "upgrade":
		if len(args) != 2 {
			fail("usage: upgrade <data-dir>")
		}
		var n int
		n, err = provstore.Upgrade(args[1])
		if err == nil {
			fmt.Printf("%s: %d document(s) in this build's format\n", args[1], n)
		}
	default:
		fail("unknown command %q", args[0])
	}
	if err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
