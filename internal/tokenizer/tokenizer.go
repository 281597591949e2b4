// Package tokenizer provides synthetic, language-flavored vocabularies and
// a word-level tokenizer. It replaces the real models' vocab.txt/vocab.json
// files (paper §4.2 "Model signature in query outputs"): each pre-trained
// model release carries its own vocabulary, and differences in language,
// casing, and training corpus are exactly what the input-dependent model
// variant detector probes.
package tokenizer

import (
	"sort"
	"strings"

	"decepticon/internal/rng"
)

// Reserved token ids.
const (
	CLS = 0 // classification token, prepended to every input
	UNK = 1 // unknown word
)

// ReservedTokens is the number of special ids before real words start.
const ReservedTokens = 2

// Vocab is a model vocabulary: a deterministic set of synthetic words with
// language and casing flavor.
type Vocab struct {
	Name     string
	Language string // "en", "fr", "ru"
	Cased    bool
	Size     int // total ids including reserved tokens
	words    map[string]int
	list     []string // index = id - ReservedTokens
}

// letterInventory returns the character set used to synthesize words of a
// language. The inventories are disjoint enough that words from one
// language are almost never in another language's vocabulary — mirroring
// CamemBERT/RuBERT vs. English BERT.
func letterInventory(language string) []rune {
	switch language {
	case "fr":
		return []rune("éèàçùêâîôöœabcdefgilmnoprstuv")
	case "ru":
		return []rune("абвгдежзиклмнопрстуфхцчшыэюя")
	default: // en
		return []rune("etaoinshrdlucmfwypvbgkjqxz")
	}
}

// NewVocab builds a deterministic vocabulary of size ids (including the
// reserved CLS/UNK). Cased vocabularies contain a capitalized variant of
// roughly a third of their words as distinct entries; uncased vocabularies
// lowercase every lookup.
func NewVocab(name, language string, cased bool, size int, seed uint64) *Vocab {
	if size <= ReservedTokens {
		panic("tokenizer: vocabulary too small")
	}
	v := &Vocab{
		Name:     name,
		Language: language,
		Cased:    cased,
		Size:     size,
		words:    make(map[string]int, size),
	}
	letters := letterInventory(language)
	r := rng.New(rng.Seed("vocab", name, language) ^ seed)
	id := ReservedTokens
	for id < size {
		// Synthesize a word of 3-8 letters.
		n := 3 + r.Intn(6)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(letters[r.Intn(len(letters))])
		}
		w := b.String()
		if cased && r.Float64() < 0.33 {
			w = capitalize(w)
		}
		if _, dup := v.words[w]; dup {
			continue
		}
		v.words[w] = id
		v.list = append(v.list, w)
		id++
	}
	return v
}

func capitalize(w string) string {
	rs := []rune(w)
	rs[0] = []rune(strings.ToUpper(string(rs[0])))[0]
	return string(rs)
}

// Lookup returns the id of a word, or UNK. Uncased vocabularies fold case
// before lookup; cased vocabularies distinguish "Apple" from "apple".
func (v *Vocab) Lookup(word string) int {
	if !v.Cased {
		word = strings.ToLower(word)
	}
	if id, ok := v.words[word]; ok {
		return id
	}
	if !v.Cased {
		return UNK
	}
	// Cased vocabularies still find the other-cased variant if the exact
	// form is absent, as wordpiece vocabularies usually contain both.
	if id, ok := v.words[strings.ToLower(word)]; ok {
		return id
	}
	return UNK
}

// Contains reports whether the exact word form is in the vocabulary.
func (v *Vocab) Contains(word string) bool {
	if !v.Cased {
		word = strings.ToLower(word)
	}
	_, ok := v.words[word]
	return ok
}

// Tokenize splits text on whitespace, prepends CLS, and maps each word to
// its id (UNK for out-of-vocabulary words), truncating to maxLen ids.
func (v *Vocab) Tokenize(text string, maxLen int) []int {
	out := []int{CLS}
	for _, w := range strings.Fields(text) {
		if len(out) >= maxLen {
			break
		}
		out = append(out, v.Lookup(w))
	}
	return out
}

// Words returns the vocabulary's word list (excluding reserved ids) in id
// order. The slice is shared; callers must not modify it.
func (v *Vocab) Words() []string { return v.list }

// UniqueWords returns up to n words that are in v but in none of the other
// vocabularies — the probe words the variant detector sends (§5.3).
func (v *Vocab) UniqueWords(others []*Vocab, n int) []string {
	var out []string
	for _, w := range v.list {
		unique := true
		for _, o := range others {
			if o == v {
				continue
			}
			if o.Contains(w) {
				unique = false
				break
			}
		}
		if unique {
			out = append(out, w)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// Overlap returns the fraction of v's words that are also in o.
func (v *Vocab) Overlap(o *Vocab) float64 {
	if len(v.list) == 0 {
		return 0
	}
	n := 0
	for _, w := range v.list {
		if o.Contains(w) {
			n++
		}
	}
	return float64(n) / float64(len(v.list))
}

// SortedWords returns a sorted copy of the word list (for stable output).
func (v *Vocab) SortedWords() []string {
	out := append([]string(nil), v.list...)
	sort.Strings(out)
	return out
}
